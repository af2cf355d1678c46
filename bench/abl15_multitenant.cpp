// Ablation A15 — multi-tenant multi-width serving from one shared
// candidate structure (query::TenantRegistry) vs the naive
// one-sampler-per-tenant deployment.
//
// Sweep over tenant counts M (widths spread geometrically up to W):
//
//   * agree%    — fraction of (tenant, query-slot) answers bit-identical
//                 to the dedicated width-w sampler; MUST print 100 (the
//                 exactness contract; also pinned in
//                 tests/tenant_service_test.cpp).
//   * memory    — tuples retained, shared vs the naive sum, and the
//                 bytes ratio: shared ingest keeps ONE structure keyed
//                 at W while naive pays per tenant, so shared memory is
//                 flat (sub-linear) in M.
//   * queries/s — serve_all throughput over all M standing queries
//                 (an expiry-threshold partial select over the flat
//                 candidate array each).
//   * ingest x  — arrivals/s, shared (hashed + inserted once) over
//                 naive (once per tenant): the serving-side ingest win.
#include "bench_common.h"

#include "core/windowed_bottom_s.h"
#include "query/service.h"

namespace {

using namespace dds;

struct RunOut {
  double agree = 0.0;
  double shared_tuples = 0.0;
  double naive_tuples = 0.0;
  double bytes_ratio = 0.0;
  double queries_per_s = 0.0;
  double ingest_ratio = 0.0;
};

RunOut run_point(std::size_t tenants, sim::Slot max_width, std::size_t s,
                 sim::Slot slots, std::uint64_t seed) {
  query::TenantRegistry registry(s, max_width, 1, hash::HashKind::kMurmur2,
                                 seed);
  std::vector<core::WindowedBottomSSampler> naive;
  std::vector<sim::Slot> widths;
  for (std::size_t i = 0; i < tenants; ++i) {
    const auto w = std::max<sim::Slot>(
        1, (max_width * static_cast<sim::Slot>(i + 1)) /
               static_cast<sim::Slot>(tenants));
    widths.push_back(w);
    registry.register_tenant(w);
    naive.emplace_back(s, w, hash::HashFunction(hash::HashKind::kMurmur2, seed),
                       util::derive_seed(seed, 0xAB15 + i));
  }

  util::Xoshiro256StarStar rng(seed ^ 0x15);
  std::vector<std::vector<std::uint64_t>> bursts;
  for (sim::Slot t = 0; t < slots; ++t) {
    auto& burst = bursts.emplace_back();
    const std::uint64_t count = rng.next_below(100) < 10 ? 24 : 4;
    for (std::uint64_t i = 0; i < count; ++i) {
      burst.push_back(util::mix64(1 + rng.next_below(50000)));
    }
  }

  RunOut out;
  std::uint64_t arrivals = 0;
  // Shared ingest (batched) ...
  util::Timer shared_timer;
  for (sim::Slot t = 0; t < slots; ++t) {
    registry.update_batch(0, bursts[static_cast<std::size_t>(t)], t);
    arrivals += bursts[static_cast<std::size_t>(t)].size();
  }
  const double shared_ingest = shared_timer.elapsed_seconds();
  // ... vs naive: every tenant's sampler pays the full stream.
  util::Timer naive_timer;
  for (sim::Slot t = 0; t < slots; ++t) {
    for (auto& sampler : naive) {
      for (const auto e : bursts[static_cast<std::size_t>(t)]) {
        sampler.observe(e, t);
      }
    }
  }
  const double naive_ingest = naive_timer.elapsed_seconds();
  out.ingest_ratio =
      naive_ingest / std::max(shared_ingest, 1e-9);

  // Agreement sweep at the final window of slots.
  std::vector<treap::Candidate> want;
  std::uint64_t agree = 0, checked = 0;
  const sim::Slot now = slots - 1;
  const auto& answers = registry.serve_all(now);
  for (std::size_t i = 0; i < tenants; ++i) {
    naive[i].sample_into(now, want);
    ++checked;
    agree += answers[i] == want ? 1 : 0;
  }
  out.agree = 100.0 * static_cast<double>(agree) /
              static_cast<double>(checked);

  out.shared_tuples = static_cast<double>(registry.state_size());
  std::size_t naive_tuples = 0, naive_bytes = 0;
  for (const auto& sampler : naive) {
    naive_tuples += sampler.state_size();
    naive_bytes += sampler.footprint_bytes();
  }
  out.naive_tuples = static_cast<double>(naive_tuples);
  out.bytes_ratio = static_cast<double>(naive_bytes) /
                    static_cast<double>(std::max<std::size_t>(
                        registry.footprint_bytes(), 1));

  // Serving throughput: all M standing queries, repeatedly.
  constexpr int kServeRounds = 200;
  util::Timer serve_timer;
  for (int r = 0; r < kServeRounds; ++r) registry.serve_all(now);
  out.queries_per_s = static_cast<double>(kServeRounds) *
                      static_cast<double>(tenants) /
                      serve_timer.elapsed_seconds();
  (void)arrivals;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  bench::register_common(cli);
  cli.flag("slots", "slots per run", "4000");
  cli.flag("max-width", "widest tenant window W", "1024");
  cli.flag("sample-size", "per-tenant bottom-s size", "16");
  if (!cli.parse(argc, argv)) return 1;
  const auto args = bench::read_common(cli);
  const auto slots = static_cast<sim::Slot>(cli.get_uint("slots"));
  const auto max_width = static_cast<sim::Slot>(cli.get_uint("max-width"));
  const auto s = static_cast<std::size_t>(cli.get_uint("sample-size"));
  bench::banner("Ablation A15: multi-tenant serving, shared vs naive", args);

  util::Table table({"tenants", "agree%", "shared tuples", "naive tuples",
                     "naive/shared bytes", "queries/s", "ingest x"});
  for (const std::size_t tenants : {1, 2, 4, 8, 16, 32}) {
    util::RunningStat agree, shared_tuples, naive_tuples, bytes_ratio,
        queries, ingest;
    for (std::uint64_t run = 0; run < args.runs; ++run) {
      const auto out = run_point(tenants, max_width, s, slots,
                                 bench::run_seed(args, tenants, run));
      agree.add(out.agree);
      shared_tuples.add(out.shared_tuples);
      naive_tuples.add(out.naive_tuples);
      bytes_ratio.add(out.bytes_ratio);
      queries.add(out.queries_per_s);
      ingest.add(out.ingest_ratio);
    }
    table.add_row({util::fmt(static_cast<std::uint64_t>(tenants)),
                   util::fmt_fixed(agree.mean(), 1),
                   util::fmt(shared_tuples.mean(), 4),
                   util::fmt(naive_tuples.mean(), 4),
                   util::fmt(bytes_ratio.mean(), 3),
                   util::fmt(queries.mean(), 6), util::fmt(ingest.mean(), 3)});
    if (agree.mean() < 100.0) {
      std::cerr << "A15: AGREEMENT VIOLATION at tenants=" << tenants
                << " (answers must be bit-identical to dedicated samplers)\n";
      return 1;
    }
  }
  bench::emit(table,
              "A15: M tenant widths served from one shared structure "
              "(agree% must be 100; W=" + std::to_string(max_width) +
                  ", s=" + std::to_string(s) + ")",
              "abl15_multitenant.csv", args);
  return 0;
}
