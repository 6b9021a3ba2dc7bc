// Command-line flag parsing, two layers:
//
//  * Flags — the original tiny --key=value map. Tokens are parsed
//    permissively (any name is accepted); typed getters validate values
//    lazily. Bench and example binaries keep using this. The constructor
//    aborts on a malformed token; TryParse is the fallible variant.
//
//  * FlagSet — a declarative registry for the long-lived tools
//    (imsr_cli, imsr_serve, imsr_loadgen): flags are registered up front
//    with a type, default and help line, Parse() is fallible full-token
//    parsing (a malformed value or an unknown flag becomes a usage error
//    with a nearest-name suggestion, never an abort), --help / -h is
//    recognised, and HelpText() renders the registered table. Typed
//    getters return the registered default when a flag was not given;
//    reading an unregistered name is a programmer error (IMSR_CHECK).
#ifndef IMSR_UTIL_FLAGS_H_
#define IMSR_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace imsr::util {

class Flags {
 public:
  Flags() = default;
  // Parses argv entries of the form --name=value or --name (value "true").
  // Unrecognised positional arguments abort with a usage message.
  Flags(int argc, char** argv);
  // Wraps an already-parsed name -> value map (the FlagSet bridge).
  explicit Flags(std::map<std::string, std::string> values);

  // Fallible token parse over argv[0..argc): returns false and fills
  // `error` on a token that is not --name[=value], instead of aborting.
  static bool TryParse(int argc, char** argv, Flags* flags,
                       std::string* error);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

// Shared fallible value parsers (used by Flags, FlagSet and tools that
// parse flag-shaped tokens themselves). Full-token: trailing garbage is
// an error. On failure they fill `error` with the message the CLI tests
// assert on ("flag --name expects an integer, got '...'").
bool ParseFlagInt(const std::string& name, const std::string& text,
                  int64_t* out, std::string* error);
bool ParseFlagDouble(const std::string& name, const std::string& text,
                     double* out, std::string* error);
bool ParseFlagBool(const std::string& name, const std::string& text,
                   bool* out, std::string* error);

// Nearest registered name within a small edit distance, or "" when
// nothing is close enough (powers "did you mean --x?" suggestions).
std::string SuggestFlagName(const std::string& name,
                            const std::vector<std::string>& known);

class FlagSet {
 public:
  // `program` and `synopsis` head the generated help text, e.g.
  // FlagSet("imsr_serve", "concurrent recommendation server").
  FlagSet(std::string program, std::string synopsis);

  // Registration. Duplicate names abort (programmer error). The help
  // line should not repeat the default; HelpText() appends it.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddInt(const std::string& name, int64_t default_value,
              const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  // Fallible full-token parse of argv[0..argc). On failure fills `error`
  // with one of:
  //   "expected --name=value argument, got '...'"   (positional token)
  //   "unknown flag --x (did you mean --y?)"        (typo)
  //   "flag --x expects an integer, got '...'"      (bad value)
  // --help / -h sets help_requested() and keeps parsing (so
  // `tool --help` never errors on the flags it would reject otherwise).
  bool Parse(int argc, char** argv, std::string* error);

  bool help_requested() const { return help_requested_; }
  // usage line + synopsis + one aligned row per registered flag.
  std::string HelpText() const;

  // Typed getters (valid after Parse). The flag must be registered with
  // the matching type; absent flags return the registered default.
  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  // Map view over the parsed raw values, for helpers that predate
  // FlagSet (obs::ObsOptionsFromFlags, util::ApplyThreadFlag).
  const Flags& flags() const { return view_; }

 private:
  enum class Type { kString, kInt, kDouble, kBool };

  struct Spec {
    std::string name;
    Type type = Type::kString;
    std::string help;
    std::string default_text;  // rendered for HelpText at registration
    // Registered default and (when set) parsed value.
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    bool set = false;
  };

  const Spec* Find(const std::string& name) const;
  Spec* Register(const std::string& name, Type type,
                 const std::string& help);

  std::string program_;
  std::string synopsis_;
  std::vector<Spec> specs_;               // registration order (help)
  std::map<std::string, size_t> index_;   // name -> specs_ slot
  bool help_requested_ = false;
  Flags view_;
};

}  // namespace imsr::util

#endif  // IMSR_UTIL_FLAGS_H_
