// The in-process workload (factor-dense) and the kernel layer suite.
// factor-dense bypasses serve/: it runs the dense LU and Givens QR engines
// sequentially and through parallel_for. The layer suite also runs the
// Thm 4.1 GQR chain on SoftFloat and the Thm 3.3 GEMS-NC factorization over
// Rational, the only places numeric/ and nc/ do real work.

#include <cmath>
#include <thread>

#include "analysis/depth_model.h"
#include "analysis/error_analysis.h"
#include "common.h"
#include "core/gqr_gadgets.h"
#include "factor/gaussian.h"
#include "factor/givens.h"
#include "factor/parallel_factor.h"
#include "factor/triangular.h"
#include "matrix/generators.h"
#include "nc/gems_nc.h"
#include "nc/lfmis.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "robustness/escalation.h"

namespace pfbench {

namespace rb = pfact::robustness;
using pfact::Matrix;
using pfact::numeric::Rational;
using pfact::factor::PivotStrategy;

namespace {

constexpr std::size_t kDenseN = 512;
constexpr std::size_t kSmallN = 256;
constexpr std::size_t kPoolMatrices = 4;
constexpr std::size_t kExactPoolMatrices = 16;
constexpr std::size_t kExactN = 12;
constexpr std::size_t kGqrDepth = 16;
// Normwise backward error bound for GEP on the uniform [-1, 1] ensemble
// at n = 512 (observed values sit near 1e-16).
constexpr double kBackwardErrorBound = 1e-12;

template <class F>
double timed_ms(F&& f) {
  const auto t = Clock::now();
  f();
  return ms_since(t);
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// --- factor-dense ----------------------------------------------------------

std::vector<Matrix<double>> dense_pool(std::uint64_t seed) {
  std::vector<Matrix<double>> pool;
  for (std::size_t j = 0; j < kPoolMatrices; ++j) {
    pool.push_back(pfact::gen::random_general(kDenseN, mix(seed, j, 0xDE)));
  }
  return pool;
}

double frobenius(const Matrix<double>& a) {
  double s = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

struct DenseRound {
  double lu_seq = 0, lu_par = 0, qr_seq = 0, qr_par = 0;
  double total() const { return lu_seq + lu_par + qr_seq + qr_par; }
};

// One round: LU and Givens QR of `a`, each sequential and parallel, timed
// separately; then (untimed) the parallel results must equal the
// sequential ones bit for bit, the LU must solve with a small residual, and
// QR must preserve the Frobenius norm.
DenseRound dense_round(const Matrix<double>& a, pfact::par::ThreadPool& tp,
                       Checker& check, const std::string& op) {
  DenseRound r;
  pfact::factor::LuResult<double> lu, lup;
  pfact::factor::QrResult<double> qr, qrp;
  r.lu_seq = timed_ms([&] { lu = pfact::factor::ge_factor(a, PivotStrategy::kPartial); });
  r.lu_par = timed_ms([&] {
    lup = pfact::factor::ge_factor_parallel_rows(a, PivotStrategy::kPartial, &tp);
  });
  r.qr_seq = timed_ms([&] { qr = pfact::factor::givens_qr_sameh_kuck(a); });
  r.qr_par = timed_ms(
      [&] { qrp = pfact::factor::givens_qr_sameh_kuck_parallel(a, &tp); });

  check.check(lu.ok && lup.l == lu.l && lup.u == lu.u &&
                  lup.row_perm == lu.row_perm,
              op + " parallel LU == sequential LU");
  const std::vector<double> b(a.rows(), 1.0);
  const double resid = pfact::analysis::relative_residual(
      a, pfact::factor::solve_factored(lu, b), b);
  check.check(resid <= kBackwardErrorBound,
              op + " LU solve residual " + std::to_string(resid));
  check.check(qrp.r == qr.r && qrp.rotations == qr.rotations,
              op + " parallel QR == sequential QR");
  const double fa = frobenius(a);
  check.check(qr.r.is_upper_triangular() &&
                  std::abs(frobenius(qr.r) - fa) <= 1e-12 * fa,
              op + " QR triangular and norm-preserving");
  return r;
}

// --- exact arithmetic (layer suite) ----------------------------------------

std::vector<Matrix<Rational>> exact_pool(std::uint64_t seed) {
  std::vector<Matrix<Rational>> pool;
  for (std::size_t j = 0; j < kExactPoolMatrices; ++j) {
    pool.push_back(
        pfact::gen::random_nonsingular_exact(kExactN, 4, mix(seed, j, 0xE7)));
  }
  return pool;
}

rb::ReductionTask gqr_task(int a, int b) {
  rb::ReductionTask t;
  t.algorithm = rb::Algorithm::kGqr;
  t.u = a;
  t.w = b;
  t.depth = kGqrDepth;
  return t;
}

// Thm 4.1: the GQR NAND chain on SoftFloat53 for all four input pairs. The
// decoded entry must be exactly +1 or -1 and match NAND(a, b).
void gqr_softfloat_round(Checker& check, const std::string& op) {
  for (int a : {1, -1}) {
    for (int b : {1, -1}) {
      const rb::ReductionTask t = gqr_task(a, b);
      const rb::RunReport rep =
          rb::run_on_substrate(t, rb::Substrate::kSoftFloat53);
      check.check(rep.ok() && rep.value == t.expected() &&
                      rep.decoded_entry == (t.expected() ? 1.0 : -1.0),
                  op + " GQR softfloat53 a=" + std::to_string(a) +
                      " b=" + std::to_string(b));
    }
  }
}

// Thm 3.3: GEMS-NC must satisfy P A == L U exactly and pick the permutation
// sequential GEMS picks.
void check_gems_nc(const pfact::nc::GemsNcResult& r, const Matrix<Rational>& a,
                   Checker& check, const std::string& op) {
  bool good = r.ok && r.row_perm.apply_rows(a) == r.l * r.u;
  if (good) {
    const pfact::factor::LuResult<Rational> seq =
        pfact::factor::ge_factor(a, PivotStrategy::kMinimalShift);
    good = seq.row_perm == r.row_perm;
  }
  check.check(good, op + " GEMS-NC P*A == L*U");
}

void check_prefix_ranks(const std::vector<std::size_t>& ranks, Checker& check,
                        const std::string& op) {
  // Every row of a nonsingular matrix is independent of the rows above it.
  bool good = ranks.size() == kExactN;
  for (std::size_t i = 0; good && i < ranks.size(); ++i) good = ranks[i] == i + 1;
  check.check(good, op + " prefix row ranks");
}

// The in-process workload's shape: set up 15 times (inputs and thread pool,
// a few milliseconds; the median is setup_s), warm up, then run rounds until
// the deadline; or, traced, the tracing gap over paired untraced/traced
// rounds. Throughput counts timed work only, so the untimed answer checks
// between rounds do not dilute it.
template <class Setup, class Round>
void round_workload(const Options& opt, Checker& check, Report& out,
                    Setup setup, Round round, std::size_t gap_rounds) {
  std::vector<double> setups;
  for (int s = 0; s < (opt.smoke || opt.trace ? 1 : 15) && check.ok(); ++s) {
    setups.push_back(timed_ms(setup) / 1e3);
  }
  if (!check.ok()) return;
  std::uint64_t n = 0;
  if (opt.trace) {
    std::vector<double> off, on;
    // Each round index runs twice, untraced and traced, in alternating
    // order, so both legs see the same inputs.
    for (std::uint64_t k = 0; k < gap_rounds && check.ok(); ++k) {
      for (int leg = 0; leg < 2; ++leg) {
        const bool traced = (leg == 0) == (k % 2 == 1);
        pfact::obs::set_tracing_enabled(traced);
        (traced ? on : off).push_back(round(k));
        pfact::obs::set_tracing_enabled(false);
        pfact::obs::clear_spans();
      }
    }
    out.attempted += 2 * gap_rounds;
    out.metric("trace.gap_pct", 100.0 * (median(on) / median(off) - 1.0), "%");
    out.info("trace-gap untraced_p50_ms=" + std::to_string(median(off)) +
             " traced_p50_ms=" + std::to_string(median(on)) +
             " rounds=" + std::to_string(gap_rounds));
    return;
  }
  const auto warm_deadline = deadline_after(warmup_seconds(opt.smoke));
  while (check.ok() && Clock::now() < warm_deadline) round(n++);
  std::vector<double> lat;
  const auto deadline = deadline_after(opt.seconds);
  while (check.ok() && (Clock::now() < deadline || lat.empty())) {
    lat.push_back(round(n++));
  }
  out.attempted += n;
  // Throughput and p50 are medians over 5 consecutive slices of the rounds,
  // so a host slowdown that covers one slice does not move them; the tail
  // needs every round.
  const std::size_t windows = std::min<std::size_t>(5, lat.size());
  std::vector<double> rps, p50;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> slice(lat.begin() + w * lat.size() / windows,
                                    lat.begin() + (w + 1) * lat.size() / windows);
    double busy_ms = 0;
    for (double ms : slice) busy_ms += ms;
    rps.push_back(1e3 * static_cast<double>(slice.size()) / busy_ms);
    p50.push_back(median(slice));
  }
  const Tail tail = tail_latency(lat);
  out.metric("setup_s", median(setups), "s");
  out.metric("throughput_rps", median(rps), "1/s");
  out.metric("latency_p50_ms", median(p50), "ms");
  out.metric("latency_p99_ms", tail.value, "ms");
  out.info("latency_p99_ms is p" + std::to_string(100 * tail.percentile) +
           " of " + std::to_string(tail.samples) + " rounds");
}

}  // namespace

std::string kernel_input_digest(const Options& opt, std::string* mix_line) {
  Digest d;
  for (const Matrix<double>& m : dense_pool(opt.seed)) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      d.add(&m(i, 0), m.cols() * sizeof(double));
    }
  }
  *mix_line = "random_general=" + std::to_string(kPoolMatrices) +
              ",n=" + std::to_string(kDenseN);
  return d.hex();
}

void run_factor_dense(const Options& opt, Checker& check, Report& out) {
  std::vector<Matrix<double>> pool;
  std::unique_ptr<pfact::par::ThreadPool> tp;
  std::vector<DenseRound> rounds;
  auto round = [&](std::uint64_t n) {
    const DenseRound r =
        dense_round(pool[n % pool.size()], *tp, check,
                    "round " + std::to_string(n) + " matrix " +
                        std::to_string(n % pool.size()));
    rounds.push_back(r);
    return r.total();
  };
  auto setup = [&] {
    tp.reset();
    tp = std::make_unique<pfact::par::ThreadPool>(nproc());
    pool = dense_pool(opt.seed);
  };
  round_workload(opt, check, out, setup, round, opt.smoke ? 1 : 4);
  if (opt.trace || !check.ok()) return;

  std::vector<double> lu_seq, lu_par, qr_seq, qr_par;
  for (const DenseRound& r : rounds) {
    lu_seq.push_back(r.lu_seq);
    lu_par.push_back(r.lu_par);
    qr_seq.push_back(r.qr_seq);
    qr_par.push_back(r.qr_par);
  }
  out.info("n=512 threads=" + std::to_string(tp->size()) +
           " lu_seq_ms=" + std::to_string(median(lu_seq)) +
           " lu_par_ms=" + std::to_string(median(lu_par)) +
           " qr_seq_ms=" + std::to_string(median(qr_seq)) +
           " qr_par_ms=" + std::to_string(median(qr_par)));
  // The library's own backward-error measure, once per pool matrix.
  for (std::size_t j = 0; j < pool.size(); ++j) {
    const std::vector<double> b(kDenseN, 1.0);
    const double be = pfact::analysis::solve_backward_error(
        pool[j], b, PivotStrategy::kPartial);
    check.check(be <= kBackwardErrorBound,
                "solve_backward_error matrix " + std::to_string(j) + " = " +
                    std::to_string(be));
  }
}

void kernel_layers(const Options& opt, Checker& check, Report& out) {
  using C = pfact::obs::Counter;
  namespace pf = pfact::factor;
  const std::size_t reps = opt.smoke ? 1 : 3;
  const Matrix<double> a = dense_pool(opt.seed)[0];
  const Matrix<double> a256 = pfact::gen::random_general(kSmallN, mix(opt.seed, 0, 0x256));
  pfact::par::ThreadPool tp(nproc());
  pfact::par::ThreadPool tp1(1);

  std::vector<double> lu_seq, lu_par, qr_seq, qr_par, lu_par1, qr_par1, lu256,
      qr256;
  pfact::obs::CounterDelta lu_c, qr_c, par_c;
  for (std::size_t k = 0; k < reps && check.ok(); ++k) {
    const DenseRound r = dense_round(a, tp, check, "layer round " + std::to_string(k));
    lu_seq.push_back(r.lu_seq);
    lu_par.push_back(r.lu_par);
    qr_seq.push_back(r.qr_seq);
    qr_par.push_back(r.qr_par);
    lu_par1.push_back(timed_ms(
        [&] { pf::ge_factor_parallel_rows(a, PivotStrategy::kPartial, &tp1); }));
    qr_par1.push_back(
        timed_ms([&] { pf::givens_qr_sameh_kuck_parallel(a, &tp1); }));
    lu256.push_back(timed_ms(
        [&] { pf::ge_factor_parallel_rows(a256, PivotStrategy::kPartial, &tp); }));
    qr256.push_back(
        timed_ms([&] { pf::givens_qr_sameh_kuck_parallel(a256, &tp); }));
  }
  {
    pfact::obs::ScopedCounters c;
    pf::ge_factor(a, PivotStrategy::kPartial);
    lu_c = c.delta();
  }
  {
    pfact::obs::ScopedCounters c;
    pf::givens_qr_sameh_kuck(a);
    qr_c = c.delta();
  }
  std::size_t lu_depth = 0, qr_depth = 0;
  {
    pfact::obs::ScopedCounters c;
    pfact::obs::clear_spans();
    pf::ge_factor_parallel_rows(a, PivotStrategy::kPartial, &tp);
    lu_depth = pfact::obs::critical_path_depth(pfact::obs::dump_spans());
    pfact::obs::clear_spans();
    pf::givens_qr_sameh_kuck_parallel(a, &tp);
    qr_depth = pfact::obs::critical_path_depth(pfact::obs::dump_spans());
    pfact::obs::clear_spans();
    par_c = c.delta();
  }

  // Computed work: a row update is one multiply-subtract per element plus
  // one division per row; a rotation touches 2 x n entries with 6 flops per
  // column pair. Bytes: each updated element is read and written once.
  const double lu_flops =
      2.0 * lu_c[C::kRowUpdateElems] + static_cast<double>(lu_c[C::kRowUpdates]);
  const double lu_bytes = 16.0 * lu_c[C::kRowUpdateElems];
  const double qr_flops =
      static_cast<double>(qr_c[C::kGivensRotations]) * (6.0 * kDenseN + 6.0);
  out.metric("factor.lu_seq_ms", median(lu_seq), "ms");
  out.metric("factor.lu_par_ms", median(lu_par), "ms");
  out.metric("factor.qr_seq_ms", median(qr_seq), "ms");
  out.metric("factor.qr_par_ms", median(qr_par), "ms");
  out.metric("factor.lu_gflops", lu_flops / (median(lu_seq) * 1e6), "GFLOP/s");
  out.metric("factor.qr_gflops", qr_flops / (median(qr_seq) * 1e6), "GFLOP/s");
  out.metric("factor.lu_bytes_computed", lu_bytes, "bytes");
  out.metric("factor.lu_ops_per_byte", lu_flops / lu_bytes, "flop/byte");
  out.metric("factor.givens_rotations",
             static_cast<double>(qr_c[C::kGivensRotations]), "count");
  out.metric("parallel.lu_overhead_ms", median(lu_par1) - median(lu_seq), "ms");
  out.metric("parallel.qr_overhead_ms", median(qr_par1) - median(qr_seq), "ms");
  out.metric("parallel.for_calls",
             static_cast<double>(par_c[C::kParallelForCalls]), "count");
  out.metric("parallel.tasks_submitted",
             static_cast<double>(par_c[C::kPoolTasksSubmitted]), "count");
  out.metric("parallel.chunks_run",
             static_cast<double>(par_c[C::kPoolChunksRun]), "count");
  out.metric("parallel.lu_par_n256_ms", median(lu256), "ms");
  out.metric("parallel.qr_par_n256_ms", median(qr256), "ms");
  out.metric("parallel.lu_critical_path_depth", static_cast<double>(lu_depth),
             "count");
  out.metric("parallel.lu_depth_model",
             static_cast<double>(pfact::analysis::ge_sequential(kDenseN).depth),
             "count");
  out.metric("parallel.qr_critical_path_depth", static_cast<double>(qr_depth),
             "count");
  out.metric("parallel.qr_depth_model",
             static_cast<double>(
                 pfact::analysis::givens_sameh_kuck(kDenseN).depth),
             "count");

  // Exact arithmetic.
  const std::vector<Matrix<Rational>> pool = exact_pool(opt.seed);
  std::vector<double> build_us, gqr_ms, gems_ms, ranks_ms;
  pfact::obs::CounterDelta sf_c, big_c;
  for (std::size_t k = 0; k < reps * 4 && check.ok(); ++k) {
    for (int x : {1, -1}) {
      for (int y : {1, -1}) {
        build_us.push_back(1e3 * timed_ms([&] {
          const pfact::core::GqrChain chain =
              pfact::core::build_gqr_nand_chain(x, y, kGqrDepth);
          const Matrix<pfact::numeric::Float53> m =
              chain.matrix.cast<pfact::numeric::Float53>();
          check.check(m.rows() == chain.matrix.rows(), "GQR chain cast");
        }));
      }
    }
    pfact::obs::ScopedCounters sc;
    gqr_ms.push_back(timed_ms([&] { gqr_softfloat_round(check, "layer"); }));
    sf_c = sc.delta();
    const Matrix<Rational>& m = pool[k % pool.size()];
    pfact::nc::GemsNcResult g;
    pfact::obs::ScopedCounters bc;
    gems_ms.push_back(timed_ms([&] { g = pfact::nc::gems_nc_factor(m); }));
    const pfact::obs::CounterDelta d = bc.delta();
    for (std::size_t i = 0; i < pfact::obs::kNumCounters; ++i)
      big_c.counts[i] += d.counts[i];
    check_gems_nc(g, m, check, "layer");
    std::vector<std::size_t> ranks;
    ranks_ms.push_back(timed_ms([&] { ranks = pfact::nc::prefix_row_ranks(m); }));
    check_prefix_ranks(ranks, check, "layer");
  }
  pfact::obs::clear_spans();
  const double sf_ops = static_cast<double>(
      sf_c[C::kSoftFloatAdds] + sf_c[C::kSoftFloatMuls] +
      sf_c[C::kSoftFloatDivs] + sf_c[C::kSoftFloatSqrts]);
  const double per_matrix = 1.0 / static_cast<double>(gems_ms.size());
  out.metric("core.gqr_chain_build_us", median(build_us), "us");
  out.metric("numeric.gqr_softfloat_ms", median(gqr_ms), "ms");
  out.metric("numeric.softfloat_ops", sf_ops, "count");
  out.metric("numeric.softfloat_ns_per_op", median(gqr_ms) * 1e6 / sf_ops, "ns");
  out.metric("nc.gems_nc_ms", median(gems_ms), "ms");
  out.metric("nc.prefix_ranks_ms", median(ranks_ms), "ms");
  out.metric("numeric.bigint_allocs", per_matrix * big_c[C::kBigIntAllocs],
             "count");
  out.metric("numeric.bigint_limbs_allocated",
             per_matrix * big_c[C::kBigIntLimbsAllocated], "count");
  out.metric("numeric.bigint_muls", per_matrix * big_c[C::kBigIntMuls], "count");
  out.metric("numeric.bigint_divs", per_matrix * big_c[C::kBigIntDivs], "count");
}

}  // namespace pfbench
