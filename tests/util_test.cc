// Unit tests for the utility substrate: Status/Result, Rng, FlagParser,
// TablePrinter, the LRU template's entry-count use, and the huge-page
// allocator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include "tests/test_util.h"
#include "util/flags.h"
#include "util/huge_page_allocator.h"
#include "util/line_reader.h"
#include "util/lru_cache.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace flos {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kCorruption,
        StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  FLOS_ASSIGN_OR_RETURN(const int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  // Rough uniformity: all 17 residues appear.
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(17));
  EXPECT_EQ(seen.size(), 17u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, SampleDistinctIsDistinctAndComplete) {
  Rng rng(11);
  const auto sparse = rng.SampleDistinct(1000, 10);
  EXPECT_EQ(std::set<uint64_t>(sparse.begin(), sparse.end()).size(), 10u);
  const auto dense = rng.SampleDistinct(20, 20);
  EXPECT_EQ(std::set<uint64_t>(dense.begin(), dense.end()).size(), 20u);
  for (const uint64_t v : dense) EXPECT_LT(v, 20u);
}

TEST(FlagParserTest, ParsesAllTypesAndForms) {
  FlagParser flags;
  int64_t k = 20;
  double c = 0.5;
  bool verbose = false;
  bool fancy = true;
  std::string name = "default";
  flags.AddInt("k", &k, "k");
  flags.AddDouble("c", &c, "c");
  flags.AddBool("verbose", &verbose, "v");
  flags.AddBool("fancy", &fancy, "f");
  flags.AddString("name", &name, "n");
  const char* argv[] = {"prog",      "--k=40",   "--c", "0.8", "--verbose",
                        "--no-fancy", "--name=x", "pos"};
  FLOS_ASSERT_OK(flags.Parse(8, const_cast<char**>(argv)));
  EXPECT_EQ(k, 40);
  EXPECT_DOUBLE_EQ(c, 0.8);
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(fancy);
  EXPECT_EQ(name, "x");
  ASSERT_EQ(flags.positional_args().size(), 1u);
  EXPECT_EQ(flags.positional_args()[0], "pos");
}

TEST(FlagParserTest, RejectsUnknownAndMalformed) {
  FlagParser flags;
  int64_t k = 1;
  flags.AddInt("k", &k, "k");
  {
    const char* argv[] = {"prog", "--unknown=1"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--k=abc"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--k"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
}

// strtoll saturates at INT64_MAX / INT64_MIN on overflow; the parser must
// reject the value instead of silently clamping it.
TEST(FlagParserTest, RejectsOutOfRangePositiveInteger) {
  FlagParser flags;
  int64_t k = 1;
  flags.AddInt("k", &k, "k");
  const char* argv[] = {"prog", "--k=99999999999999999999"};
  const Status status = flags.Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(k, 1) << "a rejected value must leave the flag untouched";
}

TEST(FlagParserTest, RejectsOutOfRangeNegativeInteger) {
  FlagParser flags;
  int64_t k = 1;
  flags.AddInt("k", &k, "k");
  const char* argv[] = {"prog", "--k=-99999999999999999999"};
  const Status status = flags.Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(k, 1) << "a rejected value must leave the flag untouched";
}

// The ranged overload: values are checked against [min, max] before the
// caller narrows them (a port, a thread count, a queue cap), so a negative
// queue cap or a port past 65535 fails Parse instead of wrapping.
TEST(FlagParserTest, RangedIntRejectsValuesOutsideItsRange) {
  const auto parse = [](const char* arg, int64_t* port) {
    FlagParser flags;
    flags.AddInt("port", port, 0, 65535, "p");
    const char* argv[] = {"prog", arg};
    return flags.Parse(2, const_cast<char**>(argv));
  };
  for (const char* bad : {"--port=-1", "--port=65536", "--port=70000",
                          "--port=4294967298", "--port=-4294967296"}) {
    int64_t port = 7;
    EXPECT_EQ(parse(bad, &port).code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(port, 7) << bad << ": a rejected value must leave the flag";
  }
  int64_t port = 7;
  FLOS_EXPECT_OK(parse("--port=0", &port));
  EXPECT_EQ(port, 0);
  FLOS_EXPECT_OK(parse("--port=65535", &port));
  EXPECT_EQ(port, 65535);
  // The saturating overflow check still runs first.
  EXPECT_EQ(parse("--port=99999999999999999999", &port).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(port, 65535);
}

TEST(FlagParserTest, RangedIntAcceptsTheFullRangeAtItsEnds) {
  FlagParser flags;
  int64_t queue = 256;
  int64_t wide = 0;
  flags.AddInt("max-queue", &queue, 1, int64_t{1} << 20, "q");
  flags.AddInt("wide", &wide, INT64_MIN, INT64_MAX, "w");
  {
    const char* argv[] = {"prog", "--max-queue=1", "--wide",
                          "-9223372036854775808"};
    FLOS_ASSERT_OK(flags.Parse(4, const_cast<char**>(argv)));
    EXPECT_EQ(queue, 1);
    EXPECT_EQ(wide, INT64_MIN);
  }
  {
    const char* argv[] = {"prog", "--max-queue=1048576",
                          "--wide=9223372036854775807"};
    FLOS_ASSERT_OK(flags.Parse(3, const_cast<char**>(argv)));
    EXPECT_EQ(queue, 1048576);
    EXPECT_EQ(wide, INT64_MAX);
  }
  for (const char* bad : {"--max-queue=0", "--max-queue=-1",
                          "--max-queue=1048577"}) {
    const char* argv[] = {"prog", bad};
    EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(queue, 1048576) << bad;
  }
}

/// Writes `content` to a temp file and opens a LineReader on it.
Result<LineReader> OpenText(const std::string& content) {
  const std::string path = ::testing::TempDir() + "/line_reader.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  Result<LineReader> reader = LineReader::Open(path, "test file");
  std::remove(path.c_str());  // the open file stays readable
  return reader;
}

TEST(LineReaderTest, ReadsLinesOfAnyLength) {
  // 200 KiB spans several refills and buffer doublings; CRLF endings and
  // a final line without '\n' read like any other line.
  const std::string huge(200 << 10, 'a');
  auto opened = OpenText("one\r\n" + huge + "\n\nlast");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LineReader& reader = *opened;
  std::vector<std::string> lines;
  while (reader.Next()) lines.emplace_back(reader.line());
  FLOS_EXPECT_OK(reader.status());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "one\r");
  EXPECT_EQ(lines[1], huge);
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], "last");
  EXPECT_NE(reader.At("").find("line_reader.txt:4:"), std::string::npos);
}

TEST(LineReaderTest, MissingFileIsAnIoError) {
  const auto reader = LineReader::Open("/nonexistent/dir/file", "edge list");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  EXPECT_NE(reader.status().message().find("edge list"), std::string::npos);
}

TEST(LineReaderTest, NumberTokensAreWholeFiniteAndInRange) {
  auto opened = OpenText(
      " word 42\t0 18446744073709551615 1.5e3 -2 4.9e-324\r\n"
      "-1\n18446744073709551616\n12abc\n+3\n1.5x\nnan\ninf\n1e400\n");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LineReader& reader = *opened;
  ASSERT_TRUE(reader.Next());
  uint64_t u = 0;
  double d = 0;
  FLOS_EXPECT_OK(reader.ExpectWord("word"));
  FLOS_EXPECT_OK(reader.ParseU64("a", &u));
  EXPECT_EQ(u, 42u);
  FLOS_EXPECT_OK(reader.ParseU64("b", &u));
  EXPECT_EQ(u, 0u);
  FLOS_EXPECT_OK(reader.ParseU64("c", &u));
  EXPECT_EQ(u, UINT64_MAX);
  FLOS_EXPECT_OK(reader.ParseDouble("d", &d));
  EXPECT_EQ(d, 1500.0);
  FLOS_EXPECT_OK(reader.ParseDouble("e", &d));
  EXPECT_EQ(d, -2.0) << "a negative double is the caller's to judge";
  FLOS_EXPECT_OK(reader.ParseDouble("f", &d));
  EXPECT_GT(d, 0.0) << "subnormals parse";
  FLOS_EXPECT_OK(reader.ExpectEnd());

  // Each remaining line is one bad token; every error names its line.
  for (uint64_t line = 2; reader.Next(); ++line) {
    const bool integer = line <= 5;
    const Status s = integer ? reader.ParseU64("id", &u)
                             : reader.ParseDouble("weight", &d);
    ASSERT_FALSE(s.ok()) << reader.line();
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    EXPECT_NE(s.message().find(":" + std::to_string(line) + ":"),
              std::string::npos)
        << s.message();
  }
  FLOS_EXPECT_OK(reader.status());
  EXPECT_NE(reader.At("").find(":9:"), std::string::npos) << "9 lines read";
}

TEST(LineReaderTest, WordsMustStandAloneAndLinesMustEnd) {
  auto opened = OpenText("shards 1\nshard 1 2\n");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LineReader& reader = *opened;
  ASSERT_TRUE(reader.Next());
  EXPECT_FALSE(reader.ExpectWord("shard").ok()) << "prefix of a token";
  ASSERT_TRUE(reader.Next());
  uint64_t u = 0;
  FLOS_EXPECT_OK(reader.ExpectWord("shard"));
  FLOS_EXPECT_OK(reader.ParseU64("index", &u));
  const Status s = reader.ExpectEnd();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(":2: trailing garbage: '2'"), std::string::npos)
      << s.message();
}

TEST(LineReaderTest, NulByteStopsTheReadWithItsLine) {
  auto opened = OpenText(std::string("ok\nb") + '\0' + "d\nnever\n");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LineReader& reader = *opened;
  ASSERT_TRUE(reader.Next());
  EXPECT_FALSE(reader.Next());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find(":2:"), std::string::npos);
  EXPECT_FALSE(reader.Next()) << "a failed reader stays failed";
  EXPECT_EQ(reader.Fail("missing row").message(), reader.status().message())
      << "later errors must not mask the unreadable line";
}

TEST(TablePrinterTest, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::FormatDouble(0.5), "0.5");
  EXPECT_EQ(TablePrinter::FormatDouble(1234.5678, 6), "1234.57");
}

TEST(TablePrinterTest, CsvMode) {
  TablePrinter t(/*csv=*/true);
  t.AddRow({"a", "b"});
  t.AddRow({"1", "2"});
  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  t.Print(mem);
  std::fclose(mem);
  EXPECT_STREQ(buf, "a,b\n1,2\n");
}

TEST(TablePrinterTest, AlignedMode) {
  TablePrinter t;
  t.AddRow({"long-header", "x"});
  t.AddRow({"a", "y"});
  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  t.Print(mem);
  std::fclose(mem);
  EXPECT_STREQ(buf, "long-header  x\na            y\n");
}

// The query and subgraph caches charge 1 per entry, so the capacity is an
// entry count and the charge is the number of cached entries. (The byte-
// charged block-cache use is tested in storage_test.)
TEST(LruCacheTest, UnitChargeCountsEntries) {
  LruCache<int, std::string> cache(3);
  cache.Put(1, "a");
  cache.Put(2, "b");
  cache.Put(3, "c");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.charge(), 3u);
  ASSERT_NE(cache.Get(1), nullptr);  // 2 becomes least recent
  cache.Put(4, "d");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.charge(), 3u);
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "a");
  EXPECT_EQ(*cache.Get(4), "d");
}

TEST(LruCacheTest, ZeroCapacityCachesNothing) {
  LruCache<int, std::string> cache(0);
  cache.Put(1, "a");
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charge(), 0u);
}

TEST(LruCacheTest, ClearDropsEveryEntryAndItsCharge) {
  LruCache<int, std::string> cache(8);
  cache.Put(1, "a", 3);
  cache.Put(2, "b", 4);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charge(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  // The full budget is available again.
  cache.Put(3, "c", 8);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.charge(), 8u);
}

bool HugePageAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kHugePageBytes == 0;
}

/// Virtual size of this process in pages (first field of statm).
uint64_t VirtualPages() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  statm >> pages;
  return pages;
}

TEST(HugePageAllocatorTest, MapsFromTwoMibUp) {
  using CharAlloc = HugePageAllocator<char>;
  using DoubleAlloc = HugePageAllocator<double>;
  EXPECT_FALSE(CharAlloc::IsMapped(kHugePageBytes - 1));
  EXPECT_TRUE(CharAlloc::IsMapped(kHugePageBytes));
  EXPECT_FALSE(DoubleAlloc::IsMapped(kHugePageBytes / sizeof(double) - 1));
  EXPECT_TRUE(DoubleAlloc::IsMapped(kHugePageBytes / sizeof(double)));
  // Both sides of the threshold allocate, hold writes and free.
  CharAlloc alloc;
  for (const size_t n : {size_t{1}, kHugePageBytes - 1, kHugePageBytes}) {
    char* p = alloc.allocate(n);
    ASSERT_NE(p, nullptr);
    p[n - 1] = 'z';
    p[0] = 'a';
    EXPECT_EQ(p[0], 'a');
    EXPECT_EQ(p[n - 1], n > 1 ? 'z' : 'a');
    alloc.deallocate(p, n);
  }
}

TEST(HugePageAllocatorTest, MappedBlocksAreTwoMibAlignedAndZeroed) {
  HugePageAllocator<uint64_t> alloc;
  const size_t per_page = kHugePageBytes / sizeof(uint64_t);
  // Exact pages and odd sizes whose tail page is partial.
  for (const size_t n : {per_page, per_page + 1, 3 * per_page + 7}) {
    uint64_t* p = alloc.allocate(n);
    EXPECT_TRUE(HugePageAligned(p)) << n << " elements";
    EXPECT_EQ(p[0], 0u);
    EXPECT_EQ(p[n - 1], 0u);
    p[n - 1] = n;
    EXPECT_EQ(p[n - 1], n);
    alloc.deallocate(p, n);
  }
}

TEST(HugePageAllocatorTest, VectorKeepsContentsAcrossTheThreshold) {
  HugePageVector<uint32_t> v;
  const auto count = static_cast<uint32_t>(3 * kHugePageBytes / sizeof(uint32_t));
  bool crossed = false;
  for (uint32_t i = 0; i < count; ++i) {
    v.push_back(i * 7u);
    if (HugePageAllocator<uint32_t>::IsMapped(v.capacity())) {
      crossed = true;
      ASSERT_TRUE(HugePageAligned(v.data())) << "capacity " << v.capacity();
    }
  }
  EXPECT_TRUE(crossed);
  for (uint32_t i = 0; i < count; ++i) ASSERT_EQ(v[i], i * 7u);
  // Shrinking back below the threshold copies into a heap block.
  v.resize(16);
  v.shrink_to_fit();
  for (uint32_t i = 0; i < 16; ++i) ASSERT_EQ(v[i], i * 7u);
}

TEST(HugePageAllocatorTest, MoveAndSwapHandBuffersOver) {
  HugePageVector<double> big(kHugePageBytes / sizeof(double) + 5, 1.5);
  HugePageVector<double> small(3, 2.5);
  const double* big_data = big.data();
  const double* small_data = small.data();
  big.swap(small);
  EXPECT_EQ(big.data(), small_data);
  EXPECT_EQ(small.data(), big_data);
  EXPECT_EQ(big.size(), 3u);
  EXPECT_EQ(small.back(), 1.5);
  std::swap(big, small);
  EXPECT_EQ(big.data(), big_data);
  HugePageVector<double> moved(std::move(big));
  EXPECT_EQ(moved.data(), big_data);
  EXPECT_EQ(moved.front(), 1.5);
  HugePageVector<double> assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), big_data);
  assigned = small;  // copy back below the threshold
  EXPECT_EQ(assigned.size(), 3u);
  EXPECT_EQ(assigned[2], 2.5);
}

TEST(HugePageAllocatorTest, RepeatedAllocateAndFreeReleasesMappings) {
  HugePageAllocator<char> alloc;
  const size_t n = 2 * kHugePageBytes + 12345;
  const uint64_t before = VirtualPages();
  for (int round = 0; round < 256; ++round) {
    char* p = alloc.allocate(n);
    ASSERT_TRUE(HugePageAligned(p));
    p[round] = static_cast<char>(round);
    p[n - 1] = 1;
    alloc.deallocate(p, n);
  }
  // 256 leaked blocks would add 1.5 GB of address space; a few MB of
  // drift is the test runner's own.
  const uint64_t after = VirtualPages();
  EXPECT_LT(after, before + (64u << 20) / 4096) << before << " -> " << after;
}

}  // namespace
}  // namespace flos
