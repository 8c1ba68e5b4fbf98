#include "sketch/registry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace hk {

// Registration blocks live next to each algorithm's implementation; the
// pins below keep their objects linked when hk_core is consumed as a
// static library. Adding an algorithm: write a HK_REGISTER_SKETCHES block
// in its .cpp and pin it here.
#define HK_PIN_SKETCHES(token) HK_REGISTER_SKETCHES(token);
HK_PIN_SKETCHES(HeavyKeeperTopK)
HK_PIN_SKETCHES(SpaceSaving)
HK_PIN_SKETCHES(LossyCounting)
HK_PIN_SKETCHES(Css)
HK_PIN_SKETCHES(CmTopK)
HK_PIN_SKETCHES(CountSketchTopK)
HK_PIN_SKETCHES(Frequent)
HK_PIN_SKETCHES(ElasticSketch)
HK_PIN_SKETCHES(ColdFilter)
HK_PIN_SKETCHES(CounterTree)
HK_PIN_SKETCHES(HeavyGuardian)
HK_PIN_SKETCHES(ShardedTopK)
HK_PIN_SKETCHES(WindowedTopK)
#undef HK_PIN_SKETCHES

namespace {

struct Registry {
  std::vector<SketchEntry> entries;
  std::unordered_map<std::string, size_t> index;  // name and aliases -> entry
};

Registry& TheRegistry() {
  static Registry registry;
  return registry;
}

void EnsureRegistered() {
  static std::once_flag once;
  std::call_once(once, [] {
    HkRegisterSketches_HeavyKeeperTopK();
    HkRegisterSketches_SpaceSaving();
    HkRegisterSketches_LossyCounting();
    HkRegisterSketches_Css();
    HkRegisterSketches_CmTopK();
    HkRegisterSketches_CountSketchTopK();
    HkRegisterSketches_Frequent();
    HkRegisterSketches_ElasticSketch();
    HkRegisterSketches_ColdFilter();
    HkRegisterSketches_CounterTree();
    HkRegisterSketches_HeavyGuardian();
    HkRegisterSketches_ShardedTopK();
    HkRegisterSketches_WindowedTopK();
  });
}

[[noreturn]] void Fail(const std::string& what) { throw std::invalid_argument(what); }

uint64_t ParseUint(const std::string& key, const std::string& value) {
  // Digits only: strtoull would silently wrap a leading '-' into a huge
  // unsigned value.
  if (value.empty() ||
      !std::all_of(value.begin(), value.end(),
                   [](unsigned char c) { return std::isdigit(c) != 0; })) {
    Fail("sketch spec: malformed integer '" + value + "' for '" + key + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size()) {
    Fail("sketch spec: malformed integer '" + value + "' for '" + key + "'");
  }
  if (errno == ERANGE) {
    Fail("sketch spec: integer '" + value + "' for '" + key + "' is out of range");
  }
  return v;
}

double ParseDouble(const std::string& key, const std::string& value) {
  if (value.empty()) {
    Fail("sketch spec: empty value for '" + key + "'");
  }
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) {
    Fail("sketch spec: malformed number '" + value + "' for '" + key + "'");
  }
  return v;
}

// "65536", "64kb", "1mb" (suffix case-insensitive).
size_t ParseMemory(const std::string& value) {
  std::string digits = value;
  size_t multiplier = 1;
  if (digits.size() >= 2) {
    std::string suffix = digits.substr(digits.size() - 2);
    for (char& c : suffix) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (suffix == "kb") {
      multiplier = 1024;
      digits.resize(digits.size() - 2);
    } else if (suffix == "mb") {
      multiplier = 1024 * 1024;
      digits.resize(digits.size() - 2);
    }
  }
  const uint64_t units = ParseUint("mem", digits);
  if (units == 0) {
    Fail("sketch spec: mem= must be positive");
  }
  if (units > std::numeric_limits<size_t>::max() / multiplier) {
    Fail("sketch spec: mem='" + value + "' is out of range");
  }
  return static_cast<size_t>(units) * multiplier;
}

KeyKind ParseKeyKind(const std::string& value) {
  // Numeric widths, plus the ingest layer's key-policy names (src/ingest/
  // pcap_reader.h) so a spec can say key=5tuple next to hk_cli --key.
  if (value == "4" || value == "src" || value == "src-only") {
    return KeyKind::kSynthetic4B;
  }
  if (value == "8" || value == "pair" || value == "addr-pair") {
    return KeyKind::kAddrPair8B;
  }
  if (value == "13" || value == "5tuple" || value == "five-tuple") {
    return KeyKind::kFiveTuple13B;
  }
  Fail("sketch spec: key= must be 4|src, 8|pair or 13|5tuple (got '" + value + "')");
}

}  // namespace

SketchArgs::SketchArgs(const SketchDefaults& defaults,
                       std::map<std::string, std::string> params)
    : memory_bytes_(defaults.memory_bytes),
      k_(defaults.k),
      key_kind_(defaults.key_kind),
      seed_(defaults.seed),
      params_(std::move(params)) {
  if (auto it = params_.find("mem"); it != params_.end()) {
    memory_bytes_ = ParseMemory(it->second);
    params_.erase(it);
  }
  if (auto it = params_.find("k"); it != params_.end()) {
    k_ = static_cast<size_t>(ParseUint("k", it->second));
    params_.erase(it);
  }
  if (auto it = params_.find("key"); it != params_.end()) {
    key_kind_ = ParseKeyKind(it->second);
    params_.erase(it);
  }
  if (auto it = params_.find("seed"); it != params_.end()) {
    seed_ = ParseUint("seed", it->second);
    params_.erase(it);
  }
}

uint64_t SketchArgs::GetUint(const std::string& key, uint64_t def) const {
  const auto it = params_.find(key);
  return it == params_.end() ? def : ParseUint(key, it->second);
}

double SketchArgs::GetDouble(const std::string& key, double def) const {
  const auto it = params_.find(key);
  return it == params_.end() ? def : ParseDouble(key, it->second);
}

void RegisterSketch(SketchEntry entry) {
  Registry& registry = TheRegistry();
  const size_t slot = registry.entries.size();
  if (!registry.index.emplace(entry.name, slot).second) {
    Fail("sketch registry: duplicate name '" + entry.name + "'");
  }
  for (const std::string& alias : entry.aliases) {
    if (!registry.index.emplace(alias, slot).second) {
      Fail("sketch registry: duplicate alias '" + alias + "'");
    }
  }
  registry.entries.push_back(std::move(entry));
}

std::unique_ptr<TopKAlgorithm> MakeSketch(const std::string& spec,
                                          const SketchDefaults& defaults) {
  EnsureRegistered();

  const size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const auto it = TheRegistry().index.find(name);
  if (it == TheRegistry().index.end()) {
    Fail("unknown sketch '" + name + "'; see RegisteredSketches()");
  }
  const SketchEntry& entry = TheRegistry().entries[it->second];

  std::map<std::string, std::string> params;
  if (colon != std::string::npos) {
    const std::string tail = spec.substr(colon + 1);
    const std::string greedy_prefix =
        entry.greedy_key.empty() ? std::string() : entry.greedy_key + "=";
    size_t pos = 0;
    while (pos <= tail.size()) {
      // The greedy key (e.g. "inner=") swallows the rest of the spec so a
      // full inner spec - commas and colons included - can be embedded.
      if (!greedy_prefix.empty() && tail.compare(pos, greedy_prefix.size(), greedy_prefix) == 0) {
        if (!params.emplace(entry.greedy_key, tail.substr(pos + greedy_prefix.size())).second) {
          Fail("sketch spec '" + spec + "': duplicate key '" + entry.greedy_key + "'");
        }
        break;
      }
      const size_t comma = std::min(tail.find(',', pos), tail.size());
      const std::string param = tail.substr(pos, comma - pos);
      const size_t eq = param.find('=');
      if (param.empty() || eq == std::string::npos || eq == 0) {
        Fail("sketch spec '" + spec + "': expected key=value, got '" + param + "'");
      }
      if (!params.emplace(param.substr(0, eq), param.substr(eq + 1)).second) {
        Fail("sketch spec '" + spec + "': duplicate key '" + param.substr(0, eq) + "'");
      }
      pos = comma + 1;
    }
  }

  // Reject anything the algorithm did not declare (common keys are consumed
  // by SketchArgs below).
  for (const auto& [key, value] : params) {
    const bool common = key == "mem" || key == "k" || key == "key" || key == "seed";
    const bool declared =
        std::find(entry.param_keys.begin(), entry.param_keys.end(), key) !=
        entry.param_keys.end();
    if (!common && !declared) {
      Fail("sketch spec '" + spec + "': unknown key '" + key + "' for " + entry.name);
    }
  }

  return entry.factory(SketchArgs(defaults, std::move(params)));
}

std::vector<std::string> RegisteredSketches() {
  EnsureRegistered();
  std::vector<std::string> names;
  names.reserve(TheRegistry().entries.size());
  for (const SketchEntry& entry : TheRegistry().entries) {
    names.push_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string ResolveSketchName(const std::string& name_or_alias) {
  EnsureRegistered();
  const auto it = TheRegistry().index.find(name_or_alias);
  return it == TheRegistry().index.end() ? std::string()
                                         : TheRegistry().entries[it->second].name;
}

}  // namespace hk
