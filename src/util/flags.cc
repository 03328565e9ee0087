#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace flos {

namespace {

std::string BoolRepr(bool b) { return b ? "true" : "false"; }

}  // namespace

void FlagParser::AddInt(const std::string& name, int64_t* target,
                        const std::string& help) {
  AddInt(name, target, INT64_MIN, INT64_MAX, help);
}

void FlagParser::AddInt(const std::string& name, int64_t* target,
                        int64_t min_value, int64_t max_value,
                        const std::string& help) {
  flags_.push_back({name, Type::kInt, target, help, std::to_string(*target),
                    min_value, max_value});
}

void FlagParser::AddDouble(const std::string& name, double* target,
                           const std::string& help) {
  flags_.push_back(
      {name, Type::kDouble, target, help, std::to_string(*target)});
}

void FlagParser::AddBool(const std::string& name, bool* target,
                         const std::string& help) {
  flags_.push_back({name, Type::kBool, target, help, BoolRepr(*target)});
}

void FlagParser::AddString(const std::string& name, std::string* target,
                           const std::string& help) {
  flags_.push_back({name, Type::kString, target, help, *target});
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status FlagParser::SetValue(const Flag& flag, const std::string& value) {
  char* end = nullptr;
  switch (flag.type) {
    case Type::kInt: {
      errno = 0;
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + flag.name +
                                       ": not an integer: '" + value + "'");
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("flag --" + flag.name +
                                       ": integer out of range: '" + value +
                                       "'");
      }
      if (v < flag.min_value || v > flag.max_value) {
        return Status::InvalidArgument(
            "flag --" + flag.name + ": " + value + " is outside [" +
            std::to_string(flag.min_value) + ", " +
            std::to_string(flag.max_value) + "]");
      }
      *static_cast<int64_t*>(flag.target) = v;
      return Status::OK();
    }
    case Type::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + flag.name +
                                       ": not a number: '" + value + "'");
      }
      *static_cast<double*>(flag.target) = v;
      return Status::OK();
    }
    case Type::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        return Status::InvalidArgument("flag --" + flag.name +
                                       ": not a boolean: '" + value + "'");
      }
      return Status::OK();
    }
    case Type::kString:
      *static_cast<std::string*>(flag.target) = value;
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, char** argv) {
  positional_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else {
      name = arg;
    }
    const Flag* flag = Find(name);
    if (flag == nullptr && !has_value && name.rfind("no-", 0) == 0) {
      // `--no-foo` as shorthand for `--foo=false`.
      flag = Find(name.substr(3));
      if (flag != nullptr && flag->type == Type::kBool) {
        *static_cast<bool*>(flag->target) = false;
        continue;
      }
      flag = nullptr;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!has_value) {
      if (flag->type == Type::kBool) {
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    FLOS_RETURN_IF_ERROR(SetValue(*flag, value));
  }
  return Status::OK();
}

void FlagParser::PrintUsage(const std::string& program_name) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program_name.c_str());
  for (const Flag& f : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", f.name.c_str(),
                 f.help.c_str(), f.default_repr.c_str());
  }
}

}  // namespace flos
