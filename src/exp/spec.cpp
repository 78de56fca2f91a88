#include "exp/spec.hpp"

#include <charconv>
#include <cmath>
#include <type_traits>
#include <utility>

namespace pnet::exp {

namespace {

// ------------------------------------------------------------- the codecs
//
// A codec fixes a field's C++ member type and its JSON form: encode gives
// the value JsonWriter prints, decode checks a parsed value and stores it
// (on failure `why` completes the sentence "<field path> ...").

/// Largest double that still holds every integer exactly: integer fields
/// beyond 2^53 would silently lose precision in the double-typed parse
/// tree, so they are rejected as out of range instead.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// Largest wire time, in picoseconds. Below 2^51 ps (~2252 s) the trip
/// ps -> microseconds (a double) -> llround(us * 1e6) returns every
/// picosecond count unchanged; above it, it drifts for a few percent of
/// values, and a served spec would run with another time than the same
/// spec run in-process.
constexpr double kMaxWireTimePs = 2251799813685248.0;  // 2^51

bool fail(std::string& why, std::string text) {
  why = std::move(text);
  return false;
}

bool integral(const JsonValue& v, double lo, double hi, double& out,
              std::string& why) {
  if (!v.is_number()) return fail(why, "must be a number");
  if (v.number != std::floor(v.number)) {
    return fail(why, "must be an integer");
  }
  if (v.number < lo || v.number > hi) return fail(why, "out of range");
  out = v.number;
  return true;
}

struct Int {
  static int encode(int v) { return v; }
  static bool decode(const JsonValue& v, int& out, std::string& why) {
    double d = 0.0;
    if (!integral(v, -2147483648.0, 2147483647.0, d, why)) return false;
    out = static_cast<int>(d);
    return true;
  }
};

/// Unsigned integer up to 2^53.
struct U64 {
  static std::uint64_t encode(std::uint64_t v) { return v; }
  static bool decode(const JsonValue& v, std::uint64_t& out,
                     std::string& why) {
    double d = 0.0;
    if (!integral(v, 0.0, kMaxExactInteger, d, why)) return false;
    out = static_cast<std::uint64_t>(d);
    return true;
  }
};

/// Any unsigned 64-bit integer, read from the number's literal so no digit
/// is lost to the double parse tree. Topology seeds need the full width:
/// the benches wire with util::job_seed outputs.
struct Seed64 {
  static std::uint64_t encode(std::uint64_t v) { return v; }
  static bool decode(const JsonValue& v, std::uint64_t& out,
                     std::string& why) {
    if (v.is_number()) {
      const char* last = v.text.data() + v.text.size();
      const auto [end, ec] = std::from_chars(v.text.data(), last, out);
      if (ec == std::errc() && end == last) return true;
      if (ec == std::errc::result_out_of_range) {
        return fail(why, "out of range");
      }
    }
    return U64::decode(v, out, why);  // "1e3", "-1", "1.5", non-numbers
  }
};

struct Double {
  static double encode(double v) { return v; }
  static bool decode(const JsonValue& v, double& out, std::string& why) {
    if (!v.is_number()) return fail(why, "must be a number");
    out = v.number;
    return true;
  }
};

struct Bool {
  static bool encode(bool v) { return v; }
  static bool decode(const JsonValue& v, bool& out, std::string& why) {
    if (!v.is_bool()) return fail(why, "must be a boolean");
    out = v.boolean;
    return true;
  }
};

struct String {
  static const std::string& encode(const std::string& v) { return v; }
  static bool decode(const JsonValue& v, std::string& out,
                     std::string& why) {
    if (!v.is_string()) return fail(why, "must be a string");
    out = v.text;
    return true;
  }
};

/// SimTime picoseconds as (fractional) microseconds, up to 2^51 ps.
struct TimeUs {
  static double encode(SimTime v) { return units::to_microseconds(v); }
  static bool decode(const JsonValue& v, SimTime& out, std::string& why) {
    if (!v.is_number()) return fail(why, "must be a number");
    const double ps = v.number * static_cast<double>(units::kMicrosecond);
    if (ps < 0.0 || ps > kMaxWireTimePs) return fail(why, "out of range");
    out = static_cast<SimTime>(std::llround(ps));
    return true;
  }
};

/// A rate in bits per second as Gbps.
struct RateGbps {
  static double encode(double bps) { return bps / units::kGbps; }
  static bool decode(const JsonValue& v, double& out, std::string& why) {
    if (!Double::decode(v, out, why)) return false;
    out *= units::kGbps;
    // 1e300 Gbps is a finite JSON number but an infinite rate, which the
    // canonical form would print as null.
    if (!std::isfinite(out)) return fail(why, "out of range");
    return true;
  }
};

/// An enum by its name in the enum's registry.
template <class E, std::size_t N>
struct ByName {
  const util::EnumName<E> (&names)[N];

  const char* encode(E v) const { return util::name_of(names, v); }
  bool decode(const JsonValue& v, E& out, std::string& why) const {
    if (!v.is_string()) return fail(why, "must be a string");
    const std::optional<E> value = util::value_of(names, v.text);
    if (!value) {
      return fail(why, "must be one of: " + util::names_of(names) +
                           " (got '" + v.text + "')");
    }
    out = *value;
    return true;
  }
  // An optional enum: written only when set (its emit-when says so).
  const char* encode(const std::optional<E>& v) const { return encode(*v); }
  bool decode(const JsonValue& v, std::optional<E>& out,
              std::string& why) const {
    E value{};
    if (!decode(v, value, why)) return false;
    out = value;
    return true;
  }
};
template <class E, std::size_t N>
ByName(const util::EnumName<E> (&)[N]) -> ByName<E, N>;

// --------------------------------------------------------- the field table

/// The spec schema: each sub-object's wire fields, once, in wire order, as
/// (wire name, member, codec, emit-when). `S` is const when writing. The
/// visitor `v` is a Writer (to_json) or a MemberDecoder (decode_spec);
/// emit-when only gates writing: a decoder accepts every listed field.
template <class V, class S>
void describe(V& v, S& s) {
  using T = std::remove_const_t<S>;
  if constexpr (std::is_same_v<T, ExperimentSpec>) {
    v.field("name", s.name, String{});
    v.field("engine", s.engine, ByName{kEngineNames});
    v.field("seed", s.seed, U64{});
    v.field("trials", s.trials, Int{});
    v.field("deadline_us", s.deadline, TimeUs{}, s.deadline > 0);
    // Written only when a control plane is on: specs predating the field
    // keep their canonical bytes (and hashes) unchanged.
    v.object("controller", s.controller, s.controller.active());
    // A custom engine's trial function owns everything below.
    const bool built_in = s.engine != EngineKind::kCustom;
    v.object("topo", s.topo, built_in);
    v.object("policy", s.policy, built_in);
    v.object("workload", s.workload, built_in);
    v.object("sim", s.sim, built_in);
  } else if constexpr (std::is_same_v<T, control::ControllerConfig>) {
    v.field("mode", s.mode, ByName{control::kModeNames});
    v.field("cadence_us", s.cadence, TimeUs{});
    v.field("detect_delay_us", s.detect_delay, TimeUs{});
    v.field("imbalance_threshold", s.imbalance_threshold, Double{});
    v.field("max_repins_per_tick", s.max_repins_per_tick, Int{});
    v.field("window", s.window, Int{});
  } else if constexpr (std::is_same_v<T, topo::NetworkSpec>) {
    v.field("kind", s.topo, ByName{topo::kTopoKindNames});
    v.field("type", s.type, ByName{topo::kNetworkTypeNames});
    v.field("hosts", s.hosts, Int{});
    v.field("parallelism", s.parallelism, Int{});
    v.field("base_rate_gbps", s.base_rate_bps, RateGbps{});
    v.field("seed", s.seed, Seed64{});
    v.field("jf_switches", s.jf_switches, Int{}, s.jf_switches > 0);
    v.field("jf_degree", s.jf_degree, Int{}, s.jf_degree > 0);
    v.field("jf_hosts_per_switch", s.jf_hosts_per_switch, Int{},
            s.jf_hosts_per_switch > 0);
  } else if constexpr (std::is_same_v<T, core::PolicyConfig>) {
    v.field("policy", s.policy, ByName{core::kPolicyNames});
    v.field("k", s.k, Int{});
    v.field("ecmp_path_cap", s.ecmp_path_cap, Int{});
    v.field("multipath_cutoff_bytes", s.multipath_cutoff_bytes, U64{});
  } else if constexpr (std::is_same_v<T, WorkloadSpec>) {
    v.field("pattern", s.pattern, ByName{kPatternNames});
    v.field("flow_bytes", s.flow_bytes, U64{});
    v.field("rounds", s.rounds, Int{});
    v.field("start_jitter_us", s.start_jitter, TimeUs{});
    v.field("round_gap_us", s.round_gap, TimeUs{}, s.round_gap > 0);
    v.field("concurrent", s.concurrent, Int{},
            s.pattern == WorkloadSpec::Pattern::kClosedLoop);
    v.field("response_bytes", s.response_bytes, U64{}, s.response_bytes > 0);
    v.field("size_trace", s.size_trace, ByName{workload::kTraceNames},
            s.size_trace.has_value());
    v.field("size_cap_bytes", s.size_cap_bytes, U64{}, s.size_cap_bytes > 0);
  } else if constexpr (std::is_same_v<T, sim::SimConfig>) {
    v.field("queue_buffer_bytes", s.queue_buffer_bytes, U64{});
    v.field("ecn_threshold_bytes", s.ecn_threshold_bytes, U64{});
    v.field("priority_acks", s.priority_acks, Bool{});
    v.field("trim_to_header", s.trim_to_header, Bool{});
    v.field("dctcp", s.tcp.dctcp, Bool{});
  } else {
    static_assert(!sizeof(T), "no field table for this type");
  }
}

class Writer {
 public:
  explicit Writer(JsonWriter& w) : w_(w) {}

  template <class T, class Codec>
  void field(const char* name, const T& member, Codec codec,
             bool emit = true) {
    if (emit) w_.field(name, codec.encode(member));
  }

  template <class S>
  void object(const char* name, const S& member, bool emit) {
    if (!emit) return;
    w_.key(name);
    write(member);
  }

  template <class S>
  void write(const S& s) {
    w_.begin_object();
    describe(*this, s);
    w_.end_object();
  }

 private:
  JsonWriter& w_;
};

template <class S>
bool decode_object(const JsonValue& json, S& s, const std::string& path,
                   std::string& error);

/// Decodes one JSON member into the field whose wire name is its key.
class MemberDecoder {
 public:
  MemberDecoder(const std::string& key, const JsonValue& value,
                const std::string& path, std::string& error)
      : key_(key), value_(value), path_(path), error_(error) {}

  template <class T, class Codec>
  void field(const char* name, T& member, Codec codec, bool /*emit*/ = true) {
    if (matched_ || key_ != name) return;
    matched_ = true;
    std::string why;
    if (!codec.decode(value_, member, why)) {
      error_ = where(name) + " " + why;
      ok_ = false;
    }
  }

  template <class S>
  void object(const char* name, S& member, bool /*emit*/) {
    if (matched_ || key_ != name) return;
    matched_ = true;
    ok_ = decode_object(value_, member, where(name), error_);
  }

  [[nodiscard]] bool matched() const { return matched_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  std::string where(const char* name) const {
    return path_.empty() ? std::string(name) : path_ + "." + name;
  }

  const std::string& key_;
  const JsonValue& value_;
  const std::string& path_;
  std::string& error_;
  bool matched_ = false;
  bool ok_ = true;
};

/// Walks an object's members in document order, rejecting any key the
/// field table does not list — the strictness backbone. `path` is the
/// object's field path ("" for the spec itself).
template <class S>
bool decode_object(const JsonValue& json, S& s, const std::string& path,
                   std::string& error) {
  const auto label = [&] { return path.empty() ? "spec" : path; };
  if (!json.is_object()) {
    error = label() + " must be an object";
    return false;
  }
  for (const auto& [key, value] : json.members) {
    MemberDecoder decoder(key, value, path, error);
    describe(decoder, s);
    if (!decoder.matched()) {
      error = "unknown field '" + label() + "." + key + "'";
      return false;
    }
    if (!decoder.ok()) return false;
  }
  return true;
}

}  // namespace

std::string ExperimentSpec::validate() const {
  if (name.empty()) return "spec.name must not be empty";
  if (trials < 1) return "spec.trials must be >= 1 (got " +
                         std::to_string(trials) + ")";
  if (deadline < 0) return "spec.deadline must be >= 0";
  if (engine == EngineKind::kCustom) return "";  // the trial fn owns the rest
  if (topo.hosts < 2) return "spec.topo.hosts must be >= 2 (got " +
                             std::to_string(topo.hosts) + ")";
  if (topo.parallelism < 1) return "spec.topo.parallelism must be >= 1";
  if (topo.base_rate_bps <= 0) return "spec.topo.base_rate_bps must be > 0";
  if (workload.rounds < 1) return "spec.workload.rounds must be >= 1";
  if (workload.flow_bytes == 0) return "spec.workload.flow_bytes must be > 0";
  if (workload.start_jitter < 0) return "spec.workload.start_jitter must "
                                        "be >= 0";
  if (workload.round_gap < 0) return "spec.workload.round_gap must be >= 0";
  const bool closed_loop =
      workload.pattern == WorkloadSpec::Pattern::kClosedLoop;
  if (closed_loop) {
    if (engine != EngineKind::kPacket) {
      return "spec.workload.pattern closed_loop needs engine packet";
    }
    if (workload.concurrent < 1) return "spec.workload.concurrent must be "
                                        ">= 1";
    if (workload.start_jitter != 0 || workload.round_gap != 0) {
      // Every worker starts at t = 0 and paces itself.
      return "spec.workload.pattern closed_loop needs start_jitter and "
             "round_gap 0";
    }
  } else if (workload.concurrent != 1 || workload.response_bytes > 0 ||
             workload.size_trace || workload.size_cap_bytes > 0) {
    // The pair patterns would ignore them, yet they would change the hash.
    return "spec.workload.concurrent, response_bytes, size_trace and "
           "size_cap_bytes need pattern closed_loop";
  }
  if (!closed_loop && workload.round_gap == 0 && workload.rounds > 1 &&
      deadline > 0) {
    // Back-to-back rounds each run to completion; a deadline cannot be
    // applied meaningfully across them.
    return "spec.deadline requires workload.round_gap > 0 when rounds > 1";
  }
  if (policy.k < 1) return "spec.policy.k must be >= 1";
  if (policy.ecmp_path_cap < 1) return "spec.policy.ecmp_path_cap must "
                                       "be >= 1";
  if (const std::string err = controller.validate(); !err.empty()) {
    return "spec.controller: " + err;
  }
  return "";
}

void ExperimentSpec::to_json(JsonWriter& w) const { Writer(w).write(*this); }

std::string ExperimentSpec::canonical_json() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

std::uint64_t ExperimentSpec::hash() const { return fnv1a(canonical_json()); }

bool decode_spec(const JsonValue& json, ExperimentSpec& spec,
                 std::string& error) {
  return decode_object(json, spec, "", error);
}

std::string topo_json(const topo::NetworkSpec& topo) {
  JsonWriter w;
  Writer(w).write(topo);
  return w.str();
}

fsim::FsimConfig to_fsim_config(const core::PolicyConfig& policy,
                                std::uint64_t flow_bytes) {
  fsim::FsimConfig config;
  config.k = policy.k;
  config.ecmp_path_cap = policy.ecmp_path_cap;
  switch (policy.policy) {
    case core::RoutingPolicy::kEcmp:
    case core::RoutingPolicy::kRoundRobin:
      config.scheme = fsim::RouteScheme::kEcmpPlaneHash;
      break;
    case core::RoutingPolicy::kShortestPlane:
      config.scheme = fsim::RouteScheme::kShortestPlane;
      break;
    case core::RoutingPolicy::kKspMultipath:
      config.scheme = fsim::RouteScheme::kKspMultipath;
      break;
    case core::RoutingPolicy::kSizeThreshold:
      config.scheme = flow_bytes > policy.multipath_cutoff_bytes
                          ? fsim::RouteScheme::kKspMultipath
                          : fsim::RouteScheme::kShortestPlane;
      break;
  }
  return config;
}

}  // namespace pnet::exp
