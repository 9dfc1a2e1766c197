#include "util/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

namespace svc::util {

FlagSet::FlagSet(std::string program_description)
    : description_(std::move(program_description)) {}

FlagSet::Flag& FlagSet::Register(const std::string& name, Type type,
                                 const std::string& help) {
  auto flag = std::make_unique<Flag>();
  flag->type = type;
  flag->help = help;
  Flag& ref = *flag;
  flags_[name] = &ref;
  owned_.push_back(std::move(flag));
  return ref;
}

int64_t& FlagSet::Int(const std::string& name, int64_t default_value,
                      const std::string& help) {
  Flag& f = Register(name, Type::kInt, help);
  f.int_value = default_value;
  return f.int_value;
}

double& FlagSet::Double(const std::string& name, double default_value,
                        const std::string& help) {
  Flag& f = Register(name, Type::kDouble, help);
  f.double_value = default_value;
  return f.double_value;
}

bool& FlagSet::Bool(const std::string& name, bool default_value,
                    const std::string& help) {
  Flag& f = Register(name, Type::kBool, help);
  f.bool_value = default_value;
  return f.bool_value;
}

std::string& FlagSet::String(const std::string& name,
                             std::string default_value,
                             const std::string& help) {
  Flag& f = Register(name, Type::kString, help);
  f.string_value = std::move(default_value);
  return f.string_value;
}

// Numbers must parse whole ("4x" is not 4) and doubles must be finite.
bool FlagSet::SetFromText(Flag& flag, const std::string& text) {
  try {
    size_t used = 0;
    switch (flag.type) {
      case Type::kInt: {
        const int64_t value = std::stoll(text, &used);
        if (used != text.size()) return false;
        flag.int_value = value;
        return true;
      }
      case Type::kDouble: {
        const double value = std::stod(text, &used);
        if (used != text.size() || !std::isfinite(value)) return false;
        flag.double_value = value;
        return true;
      }
      case Type::kBool:
        if (text == "true" || text == "1") flag.bool_value = true;
        else if (text == "false" || text == "0") flag.bool_value = false;
        else return false;
        return true;
      case Type::kString:
        flag.string_value = text;
        return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

void FlagSet::Parse(int argc, char** argv) {
  // Expand @file response files into the token stream first, so the main
  // loop below sees one flat argument list.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '@') {
      args.push_back(arg);
      continue;
    }
    const std::string path = arg.substr(1);
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open response file '%s'\n%s", path.c_str(),
                   Usage().c_str());
      std::exit(2);
    }
    std::string line;
    while (std::getline(file, line)) {
      if (const size_t hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      std::istringstream tokens(line);
      std::string token;
      while (tokens >> token) {
        if (token[0] == '@') {
          std::fprintf(stderr,
                       "response file '%s' may not include another response "
                       "file ('%s')\n%s",
                       path.c_str(), token.c_str(), Usage().c_str());
          std::exit(2);
        }
        args.push_back(token);
      }
    }
  }

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stdout, "%s", Usage().c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), Usage().c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag '--%s'\n%s", name.c_str(),
                   Usage().c_str());
      std::exit(2);
    }
    Flag& flag = *it->second;
    if (!have_value) {
      if (flag.type == Type::kBool) {
        // `--verbose` with no value means true.
        flag.bool_value = true;
        continue;
      }
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "flag '--%s' requires a value\n%s", name.c_str(),
                     Usage().c_str());
        std::exit(2);
      }
      value = args[++i];
    }
    if (!SetFromText(flag, value)) {
      std::fprintf(stderr, "bad value '%s' for flag '--%s'\n%s", value.c_str(),
                   name.c_str(), Usage().c_str());
      std::exit(2);
    }
  }
}

std::string FlagSet::Usage() const {
  std::ostringstream out;
  out << description_ << "\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    switch (flag->type) {
      case Type::kInt: out << " (int, default " << flag->int_value << ")"; break;
      case Type::kDouble:
        out << " (double, default " << flag->double_value << ")";
        break;
      case Type::kBool:
        out << " (bool, default " << (flag->bool_value ? "true" : "false")
            << ")";
        break;
      case Type::kString:
        out << " (string, default \"" << flag->string_value << "\")";
        break;
    }
    out << "\n      " << flag->help << "\n";
  }
  return out.str();
}

}  // namespace svc::util
