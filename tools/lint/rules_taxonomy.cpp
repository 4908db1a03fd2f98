// Closed-taxonomy consistency rules (PL001–PL005, PL009, PL010, PL012).
//
// The repo's dynamic layers hang off a handful of closed taxonomies:
// obs::Counter / obs::Histogram (every enumerator needs a stable JSON name),
// robustness::FaultClass (every fault must be sweepable and printable),
// robustness::Diagnostic (every diagnostic must classify to exactly one
// FailureKind), the serve-side WorkerExit / Admission / CacheProbe /
// FrontendStatus rejection taxonomies. Each taxonomy is DEFINED in one file
// and CONSUMED in another, so a forgotten enumerator compiles cleanly and
// only fails at runtime — if a test happens to reach it. These rules close
// that gap at lint time.

#include <map>
#include <regex>
#include <set>

#include "lint/rules.h"
#include "lint/scrape.h"

namespace pfact_lint {

// PL001/PL002/PL003: every Counter/Histogram enumerator carries a unique
// kebab-case name string in the name-switch.
void check_obs_names(Context& ctx) {
  const std::string header = ctx.scrub("src/obs/counters.h");
  const std::string impl = ctx.scrub("src/obs/counters.cpp");
  if (header.empty() || impl.empty()) return;

  std::map<std::string, std::string> seen;  // name -> "Enum::kId"
  const struct {
    const char* enum_name;
    const char* fn_name;
    const char* rule;
    const char* slug;
  } taxa[] = {{"Counter", "counter_name", "PL001", "counter-unnamed"},
              {"Histogram", "histogram_name", "PL003", "histogram-unnamed"}};
  for (const auto& taxon : taxa) {
    const std::vector<std::string> ids = parse_enum(header, taxon.enum_name);
    if (ids.empty()) {
      ctx.report(taxon.rule, taxon.slug,
                 std::string("enum class ") + taxon.enum_name +
                     " not found in src/obs/counters.h");
      continue;
    }
    const std::map<std::string, std::string> cases = parse_switch_returns(
        function_body(impl, taxon.fn_name), taxon.enum_name);
    for (const std::string& id : ids) {
      const auto it = cases.find(id);
      const std::optional<std::string> name =
          it == cases.end() ? std::nullopt : quoted(it->second);
      if (!name.has_value()) {
        ctx.report(taxon.rule, taxon.slug,
                   std::string(taxon.enum_name) + "::" + id +
                       " has no name-string case in src/obs/counters.cpp");
        continue;
      }
      const std::string qualified =
          std::string(taxon.enum_name) + "::" + id;
      if (!is_kebab_case(*name)) {
        ctx.report("PL002", "obs-name-collision",
                   qualified + " name \"" + *name + "\" is not kebab-case");
      }
      const auto [pos, inserted] = seen.emplace(*name, qualified);
      if (!inserted) {
        ctx.report("PL002", "obs-name-collision",
                   qualified + " reuses name \"" + *name + "\" already "
                   "taken by " + pos->second);
      }
    }
  }
}

// PL004: the fault taxonomy is printable and sweepable.
void check_fault_classes(Context& ctx) {
  const std::string src = ctx.scrub("src/robustness/fault_injector.h");
  if (src.empty()) return;
  const std::vector<std::string> ids = parse_enum(src, "FaultClass");
  if (ids.empty()) {
    ctx.report("PL004", "fault-class-unhandled",
               "enum class FaultClass not found in "
               "src/robustness/fault_injector.h");
    return;
  }
  const std::map<std::string, std::string> names = parse_switch_returns(
      function_body(src, "fault_class_name"), "FaultClass");

  // The all_fault_classes() sweep list: every FaultClass:: mention inside
  // the function body (the static vector's brace-initializer).
  std::set<std::string> swept;
  const std::string sweep_body = function_body(src, "all_fault_classes");
  const std::regex mention("FaultClass::(k[A-Za-z0-9_]+)");
  for (auto it =
           std::sregex_iterator(sweep_body.begin(), sweep_body.end(), mention);
       it != std::sregex_iterator(); ++it) {
    swept.insert((*it)[1].str());
  }
  for (const std::string& id : ids) {
    const auto it = names.find(id);
    if (it == names.end() || !quoted(it->second).has_value()) {
      ctx.report("PL004", "fault-class-unhandled",
                 "FaultClass::" + id +
                     " has no name case in fault_class_name()");
    }
    if (id != "kNone" && swept.count(id) == 0) {
      ctx.report("PL004", "fault-class-unhandled",
                 "FaultClass::" + id +
                     " is missing from the all_fault_classes() sweep list — "
                     "the robustness suite would never inject it");
    }
  }
}

// PL005: every Diagnostic both prints and classifies.
void check_diagnostics(Context& ctx) {
  const std::string header = ctx.scrub("src/robustness/diagnostics.h");
  const std::string classifier = ctx.scrub("src/robustness/retry.cpp");
  if (header.empty() || classifier.empty()) return;
  const std::vector<std::string> ids = parse_enum(header, "Diagnostic");
  if (ids.empty()) {
    ctx.report("PL005", "diagnostic-unclassified",
               "enum class Diagnostic not found in "
               "src/robustness/diagnostics.h");
    return;
  }
  const std::map<std::string, std::string> names = parse_switch_returns(
      function_body(header, "diagnostic_name"), "Diagnostic");
  const std::map<std::string, std::string> kinds = parse_switch_returns(
      function_body(classifier, "classify_diagnostic"), "Diagnostic");
  for (const std::string& id : ids) {
    const auto n = names.find(id);
    if (n == names.end() || !quoted(n->second).has_value()) {
      ctx.report("PL005", "diagnostic-unclassified",
                 "Diagnostic::" + id +
                     " has no name case in diagnostic_name()");
    }
    const auto k = kinds.find(id);
    if (k == kinds.end() || k->second.find("FailureKind::") ==
                                std::string::npos) {
      ctx.report("PL005", "diagnostic-unclassified",
                 "Diagnostic::" + id +
                     " is not mapped to a FailureKind in "
                     "classify_diagnostic() (src/robustness/retry.cpp)");
    }
  }
}

// PL009: the worker-death taxonomy is printable, diagnosable, and swept.
// WorkerExit is DEFINED in src/serve/warm_pool.h (with its name switch and
// the all_worker_exits() sweep the soak harness certifies coverage against)
// but DIAGNOSED in src/serve/supervisor.h — the classic cross-file gap this
// tool exists for: a new death class compiles everywhere and silently falls
// through to the kInternalError backstop at the first real crash.
void check_worker_exits(Context& ctx) {
  const std::string pool = ctx.scrub("src/serve/warm_pool.h");
  const std::string sup = ctx.scrub("src/serve/supervisor.h");
  if (pool.empty() || sup.empty()) return;
  const std::vector<std::string> ids = parse_enum(pool, "WorkerExit");
  if (ids.empty()) {
    ctx.report("PL009", "worker-exit-unmapped",
               "enum class WorkerExit not found in src/serve/warm_pool.h");
    return;
  }
  const std::map<std::string, std::string> names = parse_switch_returns(
      function_body(pool, "worker_exit_name"), "WorkerExit");
  const std::map<std::string, std::string> diags = parse_switch_returns(
      function_body(sup, "diagnose_worker_exit"), "WorkerExit");

  std::set<std::string> swept;
  const std::string sweep_body = function_body(pool, "all_worker_exits");
  const std::regex mention("WorkerExit::(k[A-Za-z0-9_]+)");
  for (auto it =
           std::sregex_iterator(sweep_body.begin(), sweep_body.end(), mention);
       it != std::sregex_iterator(); ++it) {
    swept.insert((*it)[1].str());
  }
  for (const std::string& id : ids) {
    const auto n = names.find(id);
    if (n == names.end() || !quoted(n->second).has_value()) {
      ctx.report("PL009", "worker-exit-unmapped",
                 "WorkerExit::" + id +
                     " has no name case in worker_exit_name()");
    }
    const auto d = diags.find(id);
    if (d == diags.end() ||
        d->second.find("Diagnostic::") == std::string::npos) {
      ctx.report("PL009", "worker-exit-unmapped",
                 "WorkerExit::" + id +
                     " is not mapped to a Diagnostic in "
                     "diagnose_worker_exit() (src/serve/supervisor.h) — a "
                     "worker dying this way would hit the kInternalError "
                     "backstop instead of the retry taxonomy");
    }
    if (swept.count(id) == 0) {
      ctx.report("PL009", "worker-exit-unmapped",
                 "WorkerExit::" + id +
                     " is missing from the all_worker_exits() sweep list — "
                     "the real-kill soak could never certify coverage of it");
    }
  }
}

// PL010: the serving layer's rejection taxonomies — queue Admission and
// cache CacheProbe — are printable, diagnosable, and swept. Each lives in a
// single header, but the silent-fallthrough failure PL009 guards against
// applies just the same: a new shed or probe class compiles cleanly, prints
// as "?", and falls through to the kInternalError backstop the first time
// real overload (or a corrupt cache entry) reaches it. The sweep lists are
// what the service tests and the --serve soak certify coverage against.
void check_serve_rejections(Context& ctx) {
  struct Taxonomy {
    const char* file;
    const char* enum_name;
    const char* name_fn;
    const char* sweep_fn;
    const char* diag_fn;
  };
  static const Taxonomy kTaxonomies[] = {
      {"src/serve/queue.h", "Admission", "admission_name", "all_admissions",
       "diagnose_admission"},
      {"src/serve/result_cache.h", "CacheProbe", "cache_probe_name",
       "all_cache_probes", "diagnose_cache_probe"},
  };
  for (const Taxonomy& t : kTaxonomies) {
    const std::string text = ctx.scrub(t.file);
    if (text.empty()) continue;
    const std::vector<std::string> ids = parse_enum(text, t.enum_name);
    if (ids.empty()) {
      ctx.report("PL010", "serve-rejection-unmapped",
                 std::string("enum class ") + t.enum_name + " not found in " +
                     t.file);
      continue;
    }
    const std::map<std::string, std::string> names =
        parse_switch_returns(function_body(text, t.name_fn), t.enum_name);
    const std::map<std::string, std::string> diags =
        parse_switch_returns(function_body(text, t.diag_fn), t.enum_name);

    std::set<std::string> swept;
    const std::string sweep_body = function_body(text, t.sweep_fn);
    const std::regex mention(std::string(t.enum_name) + "::(k[A-Za-z0-9_]+)");
    for (auto it = std::sregex_iterator(sweep_body.begin(), sweep_body.end(),
                                        mention);
         it != std::sregex_iterator(); ++it) {
      swept.insert((*it)[1].str());
    }
    for (const std::string& id : ids) {
      const std::string qualified = std::string(t.enum_name) + "::" + id;
      const auto n = names.find(id);
      if (n == names.end() || !quoted(n->second).has_value()) {
        ctx.report("PL010", "serve-rejection-unmapped",
                   qualified + " has no name case in " + t.name_fn + "()");
      }
      const auto d = diags.find(id);
      if (d == diags.end() ||
          d->second.find("Diagnostic::") == std::string::npos) {
        ctx.report("PL010", "serve-rejection-unmapped",
                   qualified + " is not mapped to a Diagnostic in " +
                       t.diag_fn + "() (" + t.file +
                       ") — this rejection would reach clients as the "
                       "kInternalError backstop instead of a classified, "
                       "retryable shed");
      }
      if (swept.count(id) == 0) {
        ctx.report("PL010", "serve-rejection-unmapped",
                   qualified + " is missing from the " + t.sweep_fn +
                       "() sweep list — the service tests and --serve soak "
                       "could never certify coverage of it");
      }
    }
  }
}

// PL012: the socket front end's conversation taxonomy is total FOUR ways —
// named (log lines), counted (obs counters), diagnosed (the client's retry
// table), and swept (the rejection-matrix test and the --net soak's
// full-coverage contract iterate all_frontend_statuses()). A FrontendStatus
// added without all four legs compiles cleanly and only shows up as an
// unexplained client hang-up under real network weather.
void check_frontend_statuses(Context& ctx) {
  const char* file = "src/serve/frontend.h";
  const std::string text = ctx.scrub(file);
  if (text.empty()) return;
  const std::vector<std::string> ids = parse_enum(text, "FrontendStatus");
  if (ids.empty()) {
    ctx.report("PL012", "frontend-status-unmapped",
               std::string("enum class FrontendStatus not found in ") + file);
    return;
  }
  const std::map<std::string, std::string> names = parse_switch_returns(
      function_body(text, "frontend_status_name"), "FrontendStatus");
  const std::map<std::string, std::string> diags = parse_switch_returns(
      function_body(text, "diagnose_frontend_status"), "FrontendStatus");
  const std::map<std::string, std::string> counters = parse_switch_returns(
      function_body(text, "frontend_status_counter"), "FrontendStatus");

  std::set<std::string> swept;
  const std::string sweep_body =
      function_body(text, "all_frontend_statuses");
  const std::regex mention("FrontendStatus::(k[A-Za-z0-9_]+)");
  for (auto it =
           std::sregex_iterator(sweep_body.begin(), sweep_body.end(), mention);
       it != std::sregex_iterator(); ++it) {
    swept.insert((*it)[1].str());
  }
  for (const std::string& id : ids) {
    const std::string qualified = "FrontendStatus::" + id;
    const auto n = names.find(id);
    if (n == names.end() || !quoted(n->second).has_value() ||
        !is_kebab_case(*quoted(n->second))) {
      ctx.report("PL012", "frontend-status-unmapped",
                 qualified +
                     " has no kebab-case name case in "
                     "frontend_status_name()");
    }
    const auto d = diags.find(id);
    if (d == diags.end() ||
        d->second.find("Diagnostic::") == std::string::npos) {
      ctx.report("PL012", "frontend-status-unmapped",
                 qualified + " is not mapped to a Diagnostic in "
                             "diagnose_frontend_status() — the client "
                             "library could not decide retry vs fail-fast "
                             "for it");
    }
    const auto c = counters.find(id);
    if (c == counters.end() ||
        c->second.find("Counter::") == std::string::npos) {
      ctx.report("PL012", "frontend-status-unmapped",
                 qualified + " has no obs counter in "
                             "frontend_status_counter() — conversations "
                             "ending this way would be invisible to "
                             "monitoring");
    }
    if (swept.count(id) == 0) {
      ctx.report("PL012", "frontend-status-unmapped",
                 qualified + " is missing from the all_frontend_statuses() "
                             "sweep list — the rejection-matrix test and "
                             "the --net soak could never certify coverage "
                             "of it");
    }
  }
}

// PL019: the sharded-serving taxonomies — the router's view of a shard's
// lifecycle (ShardStatus) and the four ways a routed submit can end
// (RouterStatus) — must each keep all four legs: kebab name, Diagnostic
// mapping, obs counter, sweep membership. The --shard soak's coverage
// contract iterates the sweep lists; an enumerator missing a leg compiles
// clean and only surfaces when a chaos campaign happens to produce it.
void check_shard_statuses(Context& ctx) {
  const struct {
    const char* file;
    const char* enum_name;
    const char* name_fn;
    const char* diag_fn;
    const char* counter_fn;
    const char* sweep_fn;
  } taxa[] = {
      {"src/serve/shard.h", "ShardStatus", "shard_status_name",
       "diagnose_shard_status", "shard_status_counter", "all_shard_statuses"},
      {"src/serve/router.h", "RouterStatus", "router_status_name",
       "diagnose_router_status", "router_status_counter",
       "all_router_statuses"},
  };
  for (const auto& taxon : taxa) {
    const std::string text = ctx.scrub(taxon.file);
    if (text.empty()) continue;
    const std::vector<std::string> ids = parse_enum(text, taxon.enum_name);
    if (ids.empty()) {
      ctx.report("PL019", "shard-status-unmapped",
                 std::string("enum class ") + taxon.enum_name +
                     " not found in " + taxon.file);
      continue;
    }
    const std::map<std::string, std::string> names = parse_switch_returns(
        function_body(text, taxon.name_fn), taxon.enum_name);
    const std::map<std::string, std::string> diags = parse_switch_returns(
        function_body(text, taxon.diag_fn), taxon.enum_name);
    const std::map<std::string, std::string> counters = parse_switch_returns(
        function_body(text, taxon.counter_fn), taxon.enum_name);

    std::set<std::string> swept;
    const std::string sweep_body = function_body(text, taxon.sweep_fn);
    const std::regex mention(std::string(taxon.enum_name) +
                             "::(k[A-Za-z0-9_]+)");
    for (auto it = std::sregex_iterator(sweep_body.begin(), sweep_body.end(),
                                        mention);
         it != std::sregex_iterator(); ++it) {
      swept.insert((*it)[1].str());
    }
    for (const std::string& id : ids) {
      const std::string qualified =
          std::string(taxon.enum_name) + "::" + id;
      const auto n = names.find(id);
      if (n == names.end() || !quoted(n->second).has_value() ||
          !is_kebab_case(*quoted(n->second))) {
        ctx.report("PL019", "shard-status-unmapped",
                   qualified + " has no kebab-case name case in " +
                       taxon.name_fn + "()");
      }
      const auto d = diags.find(id);
      if (d == diags.end() ||
          d->second.find("Diagnostic::") == std::string::npos) {
        ctx.report("PL019", "shard-status-unmapped",
                   qualified + " is not mapped to a Diagnostic in " +
                       taxon.diag_fn +
                       "() — the router could not classify retry vs "
                       "fail-fast for requests that meet it");
      }
      const auto c = counters.find(id);
      if (c == counters.end() ||
          c->second.find("Counter::") == std::string::npos) {
        ctx.report("PL019", "shard-status-unmapped",
                   qualified + " has no obs counter in " + taxon.counter_fn +
                       "() — restart storms and shed spikes ending in this "
                       "state would be invisible to monitoring");
      }
      if (swept.count(id) == 0) {
        ctx.report("PL019", "shard-status-unmapped",
                   qualified + " is missing from the " + taxon.sweep_fn +
                       "() sweep list — the --shard soak's coverage "
                       "contract could never certify it");
      }
    }
  }
}

}  // namespace pfact_lint
