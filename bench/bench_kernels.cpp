// Per-kernel roofline harness for the SIMD kernel layer.
//
// Times every hot kernel family — the blocked dot, axpy, SpMV in each
// MatrixFormat (CSR, DIA, SELL-C-sigma), and the multicolor m-step SSOR
// sweep — twice: once with the portable scalar twins forced
// (SimdModeGuard(kForceScalar)) and once with the vector path active, and
// reports per-kernel effective bandwidth (GB/s, from a roofline traffic
// model of the layout) and arithmetic throughput (GFLOP/s, useful flops
// only — SELL padding does not count).  The scale-free column the CI perf
// gate checks is `simd_speedup` = scalar seconds / simd seconds; the
// machine-independent hard check is `bitwise_match_scalar` — both paths
// must produce IDENTICAL bits (the la/simd.hpp contract).  The SELL SpMV
// result is additionally compared bitwise against the CSR result
// in-process (the format-registry claim); any mismatch exits 1.
//
// Emits a flat JSON array (--out=BENCH_kernels.json) keyed by
// (kernel, format, n) for tools/check_bench.py.  GB/s and GFLOP/s are
// informational (absolute rates differ across runner generations); the
// traffic models are stated inline and count each operand stream once.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "fem/plane_stress.hpp"
#include "fem/plate_mesh.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mstep;

struct Row {
  std::string kernel;
  std::string format;
  index_t n = 0;
  long long flops_per_apply = 0;   // useful flops (padding excluded)
  long long bytes_per_apply = 0;   // roofline traffic model
  double seconds_scalar = 0.0;     // per apply, best of repeats
  double seconds_simd = 0.0;
  double simd_speedup = 0.0;       // scalar / simd — the gated metric
  double gbs_scalar = 0.0;
  double gbs_simd = 0.0;
  double gflops_scalar = 0.0;
  double gflops_simd = 0.0;
  bool bitwise_match_scalar = true;
  std::string simd_isa;            // path the "simd" column actually ran
};

/// Per-apply seconds of `apply`, repeated enough to cover ~`target_flops`
/// per measurement, best of `repeats` measurements.
template <typename F>
double time_kernel(const F& apply, long long flops_per_apply,
                   long long target_flops, int repeats) {
  const long long iters =
      std::max<long long>(2, target_flops / std::max<long long>(1, flops_per_apply));
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    util::Timer timer;
    for (long long it = 0; it < iters; ++it) apply();
    best = std::min(best, timer.seconds() / static_cast<double>(iters));
  }
  return best;
}

/// Times `apply` once per mode (scalar-forced, then the ambient dispatch)
/// and fills the rate columns.  `check` must run the kernel ONCE on fresh
/// state and return its output by value — it is invoked under each mode
/// for the bitwise comparison, independent of the (state-mutating) timing
/// loops.
template <typename F, typename C>
void measure(Row* row, const F& apply, const C& check, long long target_flops,
             int repeats) {
  {
    const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
    row->seconds_scalar =
        time_kernel(apply, row->flops_per_apply, target_flops, repeats);
  }
  row->simd_isa = la::simd::simd_isa();
  row->seconds_simd =
      time_kernel(apply, row->flops_per_apply, target_flops, repeats);
  decltype(check()) scalar_out;
  {
    const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
    scalar_out = check();
  }
  row->bitwise_match_scalar = scalar_out == check();
  row->simd_speedup = row->seconds_scalar / row->seconds_simd;
  const auto rate = [](long long amount, double seconds) {
    return static_cast<double>(amount) / seconds * 1e-9;
  };
  row->gbs_scalar = rate(row->bytes_per_apply, row->seconds_scalar);
  row->gbs_simd = rate(row->bytes_per_apply, row->seconds_simd);
  row->gflops_scalar = rate(row->flops_per_apply, row->seconds_scalar);
  row->gflops_simd = rate(row->flops_per_apply, row->seconds_simd);
}

void print_rows(const std::vector<Row>& rows, const std::string& title) {
  util::Table t({"kernel", "format", "n", "GB/s scalar", "GB/s simd",
                 "GFLOP/s simd", "speedup", "bitwise"});
  for (const Row& r : rows) {
    t.add_row({r.kernel, r.format, std::to_string(r.n),
               util::Table::fixed(r.gbs_scalar, 2),
               util::Table::fixed(r.gbs_simd, 2),
               util::Table::fixed(r.gflops_simd, 2),
               util::Table::fixed(r.simd_speedup, 2),
               r.bitwise_match_scalar ? "yes" : "NO"});
  }
  t.print(std::cout, title);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv, {"quick", "size", "vecn", "repeats", "out"});
    const bool quick = cli.has("quick");
    const int plate = cli.get_int("size", quick ? 32 : 64);
    const auto vecn =
        static_cast<std::size_t>(cli.get_int("vecn", quick ? 1 << 17 : 1 << 21));
    const int repeats = cli.get_int("repeats", quick ? 3 : 5);
    const std::string out_path = cli.get("out", "BENCH_kernels.json");
    // Enough work per measurement that the timer resolution is noise.
    const long long target_flops = quick ? 20'000'000 : 100'000'000;

    std::cout << "== SIMD kernel roofline harness ==\n"
              << "simd compiled = " << (la::simd::simd_compiled() ? "yes" : "no")
              << ", available = " << (la::simd::simd_available() ? "yes" : "no")
              << ", isa = " << la::simd::simd_isa() << ", best of " << repeats
              << " repeat(s)\n\n";

    std::vector<Row> rows;

    // ---- BLAS-1 on dense vectors ------------------------------------------
    util::Rng rng(1);
    const Vec vx = rng.uniform_vector(vecn);
    const Vec vy = rng.uniform_vector(vecn);
    {
      Row r;
      r.kernel = "dot";
      r.format = "vec";
      r.n = static_cast<index_t>(vecn);
      r.flops_per_apply = 2LL * static_cast<long long>(vecn);
      r.bytes_per_apply = 16LL * static_cast<long long>(vecn);  // x + y reads
      double sink = 0.0;
      measure(&r, [&] { sink = la::dot(vx, vy); },
              [&] { return la::dot(vx, vy); }, target_flops, repeats);
      (void)sink;
      rows.push_back(r);
    }
    {
      Row r;
      r.kernel = "axpy";
      r.format = "vec";
      r.n = static_cast<index_t>(vecn);
      r.flops_per_apply = 2LL * static_cast<long long>(vecn);
      // x read + y read + y write.
      r.bytes_per_apply = 24LL * static_cast<long long>(vecn);
      Vec y = vy;
      // Alternating signs keep y bounded across the timing loop; the
      // bitwise check runs once on a fresh copy instead.
      bool flip = false;
      measure(&r,
              [&] {
                la::axpy(flip ? -1e-6 : 1e-6, vx, y);
                flip = !flip;
              },
              [&] {
                Vec fresh = vy;
                la::axpy(1e-6, vx, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
    }

    // ---- SpMV per format on the FEM plate matrix --------------------------
    const fem::PlateMesh mesh = fem::PlateMesh::unit_square(plate);
    const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                                fem::EdgeLoad{1.0, 0.0});
    const la::CsrMatrix& csr = sys.stiffness;
    const index_t n = csr.rows();
    const long long nnz = csr.nnz();
    const Vec x = rng.uniform_vector(static_cast<std::size_t>(n));
    Vec y(static_cast<std::size_t>(n));

    Vec csr_scalar_out;  // scalar-path CSR result, the cross-format reference
    {
      const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
      csr.multiply(x, csr_scalar_out);
    }

    {
      Row r;
      r.kernel = "spmv";
      r.format = "csr";
      r.n = n;
      r.flops_per_apply = 2 * nnz;
      // val + col per entry, gathered x counted once per entry, row_ptr,
      // y write.
      r.bytes_per_apply = 20 * nnz + 12LL * n;
      measure(&r, [&] { csr.multiply(x, y); },
              [&] {
                Vec fresh;
                csr.multiply(x, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
    }
    {
      const la::DiaMatrix dia = la::DiaMatrix::from_csr(csr);
      Row r;
      r.kernel = "spmv";
      r.format = "dia";
      r.n = n;
      r.flops_per_apply = 2 * nnz;
      // Per triad element: v read, x read, y read+write; stored elements
      // bounded above by n per diagonal.
      r.bytes_per_apply =
          32LL * static_cast<long long>(dia.num_diagonals()) * n + 8LL * n;
      measure(&r, [&] { dia.multiply(x, y); },
              [&] {
                Vec fresh;
                dia.multiply(x, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
    }
    {
      const la::SellMatrix sell = la::SellMatrix::from_csr(csr);
      Row r;
      r.kernel = "spmv";
      r.format = "sell";
      r.n = n;
      r.flops_per_apply = 2 * nnz;  // useful flops: padding is masked, not added
      // val + col + gathered x per stored (padded) entry, len/perm + y
      // write per slot.
      r.bytes_per_apply =
          20LL * static_cast<long long>(sell.stored_values()) + 16LL * n;
      measure(&r, [&] { sell.multiply(x, y); },
              [&] {
                Vec fresh;
                sell.multiply(x, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
      sell.multiply(x, y);
      if (y != csr_scalar_out) {
        std::cerr << "SELL SpMV is not bitwise CSR SpMV!\n";
        return 1;
      }
    }

    // ---- The multicolor m-step SSOR sweep ---------------------------------
    // Once per segment layout: SELL segments (what CSR and SELL operators
    // get) and DIA segments (what a DIA operator gets).
    {
      const auto cs = color::make_colored_system(
          csr, color::six_color_classes(mesh));
      const int m = 4;
      const std::vector<double> alphas =
          core::least_squares_alphas(m, core::ssor_interval());
      const Vec res = rng.uniform_vector(static_cast<std::size_t>(n));
      Vec z(static_cast<std::size_t>(n));
      for (const la::SegmentLayout layout :
           {la::SegmentLayout::kSell, la::SegmentLayout::kDia}) {
        const core::MulticolorMStepSsor prec(
            core::SweepPlan::build(cs, layout), alphas);
        Row r;
        r.kernel = "sweep";
        r.n = n;
        const long long traversals = prec.offdiag_traversals_per_apply();
        // Off-diagonal mul+adds plus the per-step 4-flop recombine per row.
        r.flops_per_apply = 2 * traversals + 4LL * m * n;
        if (layout == la::SegmentLayout::kSell) {
          r.format = "csr";
          // val + col + gathered z per traversal; z/y/r/diag streams per
          // step.
          r.bytes_per_apply = 20 * traversals + 40LL * m * n;
        } else {
          r.format = "dia";
          // Per stored diagonal element and step: v and z (the class sum
          // stays in registers); z/y/r/diag streams per step.
          r.bytes_per_apply =
              16LL * m *
                  static_cast<long long>(prec.plan()->stored_values()) +
              40LL * m * n;
        }
        measure(&r, [&] { prec.apply(res, z); },
                [&] {
                  Vec fresh;
                  prec.apply(res, fresh);
                  return fresh;
                },
                target_flops, repeats);
        rows.push_back(r);
      }
    }

    // ---- Trace-off overhead -----------------------------------------------
    // The observability policy (docs/observability.md): instrumentation
    // that is compiled in but switched off must cost nothing measurable.
    // Time the axpy kernel bare, then wrapped the way the solver wraps
    // its hot loops — an obs::Span plus a counter bump per apply, tracer
    // disabled — and gate the ratio (CI: overhead_ratio:lower:tol0.02
    // against bench/baselines/BENCH_trace_overhead.json's 1.0).
    double overhead_ratio = 0.0;
    bool trace_bitwise_ok = true;
    {
      obs::Tracer::instance().set_enabled(false);
      Vec ya = vy;
      bool flip = false;
      const auto plain_apply = [&] {
        la::axpy(flip ? -1e-6 : 1e-6, vx, ya);
        flip = !flip;
      };
      Vec yb = vy;
      bool flip_b = false;
      const auto traced_off_apply = [&] {
        const obs::Span span("bench_axpy");
        obs::count(obs::Counter::kFlops,
                   2LL * static_cast<long long>(vecn));
        la::axpy(flip_b ? -1e-6 : 1e-6, vx, yb);
        flip_b = !flip_b;
      };
      const long long flops = 2LL * static_cast<long long>(vecn);
      const double seconds_plain =
          time_kernel(plain_apply, flops, target_flops, repeats);
      const double seconds_traced_off =
          time_kernel(traced_off_apply, flops, target_flops, repeats);
      overhead_ratio = seconds_traced_off / seconds_plain;

      // Bitwise: one apply under a LIVE tracer must match the bare one.
      Vec plain_out = vy;
      la::axpy(1e-6, vx, plain_out);
      Vec traced_out = vy;
      {
        const obs::EnableScope enable;
        const obs::Span span("bench_axpy_check");
        la::axpy(1e-6, vx, traced_out);
      }
      trace_bitwise_ok = plain_out == traced_out;
      obs::Tracer::instance().reset();

      std::cout << "trace-off overhead: plain " << seconds_plain
                << " s/apply, instrumented-off " << seconds_traced_off
                << " s/apply, ratio " << overhead_ratio << ", bitwise "
                << (trace_bitwise_ok ? "yes" : "NO") << "\n\n";
    }

    print_rows(rows, "kernel roofline (n = " + std::to_string(n) +
                         " FEM equations, vec n = " + std::to_string(vecn) +
                         ")");

    util::Json json_rows = util::Json::array();
    bool all_ok = true;
    for (const Row& r : rows) {
      all_ok = all_ok && r.bitwise_match_scalar;
      json_rows.push(util::Json::object()
                         .set("kernel", r.kernel)
                         .set("format", r.format)
                         .set("n", r.n)
                         .set("flops_per_apply", r.flops_per_apply)
                         .set("bytes_per_apply", r.bytes_per_apply)
                         .set("seconds_scalar", r.seconds_scalar)
                         .set("seconds_simd", r.seconds_simd)
                         .set("simd_speedup", r.simd_speedup)
                         .set("gbs_scalar", r.gbs_scalar)
                         .set("gbs_simd", r.gbs_simd)
                         .set("gflops_scalar", r.gflops_scalar)
                         .set("gflops_simd", r.gflops_simd)
                         .set("bitwise_match_scalar", r.bitwise_match_scalar)
                         .set("simd_isa", r.simd_isa));
    }
    // The overhead row rides the same document (extra candidate rows are
    // legal for the roofline gate; its own gate keys on kernel,format
    // against the separate BENCH_trace_overhead.json baseline).
    all_ok = all_ok && trace_bitwise_ok;
    json_rows.push(util::Json::object()
                       .set("kernel", "trace_off_overhead")
                       .set("format", "vec")
                       .set("n", static_cast<long long>(vecn))
                       .set("overhead_ratio", overhead_ratio)
                       .set("bitwise_match_traced", trace_bitwise_ok));
    std::ofstream json(out_path);
    json_rows.dump(json);
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
      std::cerr << "SIMD path diverged bitwise from the scalar twin!\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_kernels: " << e.what() << '\n';
    return 2;
  }
}
