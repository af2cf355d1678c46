// Ablation A7 — two ways to get a window sample of size s > 1.
//
// The thesis prescribes s parallel copies of the single-sample protocol
// (a with-replacement sample; core/multi_sliding.h). The alternative
// built in this library is an exact without-replacement bottom-s via
// per-site s-dominance sets and full synchronization
// (baseline/fullsync_bottom_s.h). This bench sweeps s and reports the
// message and per-site memory cost of each — the parallel-copies scheme
// pays roughly s independent single-sample protocols; the full-sync
// scheme pays per local bottom-s change but needs no replies.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dds;
  util::Cli cli;
  bench::register_common(cli);
  cli.flag("sites", "number of sites k", "10");
  cli.flag("window", "window size w", "500");
  cli.flag("sample-sizes", "comma-separated s sweep", "1,2,4,8,16");
  if (!cli.parse(argc, argv)) return 1;
  const auto args = bench::read_common(cli);
  const auto k = static_cast<std::uint32_t>(cli.get_uint("sites"));
  const auto w = static_cast<sim::Slot>(cli.get_uint("window"));
  const auto sweep = cli.get_uint_list("sample-sizes");
  bench::banner("Ablation A7: window sample size s — parallel copies vs "
                "exact bottom-s",
                args);

  util::Table table({"s", "copies msgs", "copies mem/site", "bottom-s msgs",
                     "bottom-s mem/site"});
  for (std::size_t pi = 0; pi < sweep.size(); ++pi) {
    const auto s = static_cast<std::size_t>(sweep[pi]);
    util::RunningStat copies_msgs, copies_mem, exact_msgs, exact_mem;
    for (std::uint64_t run = 0; run < args.runs; ++run) {
      const auto seed = bench::run_seed(args, pi, run);
      core::SlidingSystemConfig config;
      config.num_sites = k;
      config.window = w;
      config.sample_size = s;
      config.hash_kind = args.hash_kind;
      config.seed = seed;
      {
        core::SlidingSystem system(config);
        auto input = stream::make_trace(stream::Dataset::kEnron,
                                        args.scale(stream::Dataset::kEnron),
                                        seed + 1);
        stream::SlottedFeeder source(*input, k, 5, seed + 2);
        system.run(source);
        copies_msgs.add(static_cast<double>(system.bus().counters().total));
        copies_mem.add(static_cast<double>(system.total_site_state()) / k);
      }
      {
        baseline::BottomSSlidingSystem system(config);
        auto input = stream::make_trace(stream::Dataset::kEnron,
                                        args.scale(stream::Dataset::kEnron),
                                        seed + 1);
        stream::SlottedFeeder source(*input, k, 5, seed + 2);
        system.run(source);
        exact_msgs.add(static_cast<double>(system.bus().counters().total));
        exact_mem.add(static_cast<double>(system.total_site_state()) / k);
      }
    }
    table.add_row({util::fmt(sweep[pi]), util::fmt(copies_msgs.mean(), 6),
                   util::fmt(copies_mem.mean(), 4),
                   util::fmt(exact_msgs.mean(), 6),
                   util::fmt(exact_mem.mean(), 4)});
  }
  bench::emit(table,
              "A7: Enron synthetic, k=" + std::to_string(k) + ", w=" +
                  std::to_string(w),
              "abl7_bottom_s_window.csv", args);

  // A7b: the flat SDominanceSet substrate in isolation —
  // per-update cost vs the retained set size |T|. An all-distinct
  // stream maximizes |T| (~ s(1 + ln(w/s)), the bottom-s Lemma 10), and
  // the window sweep grows it; the "swept/update" column is the mean
  // number of stored tuples the dominance sweep examined per observe
  // (the early-exit working-set walk), which must stay roughly flat —
  // i.e. the sweep stays sublinear in |T|; what is linear in |T| (the
  // duplicate scan, the tail shifts) is a few cache lines of flat array.
  // Every row times the same fixed number of steady-state updates (after
  // a one-window warm-up), so a w=10^3 row is not a ~1 ms measurement.
  constexpr sim::Slot kTimedUpdates = 100000;
  util::Table t2({"s", "window", "mean |T|", "swept/update", "ns/update",
                  "bottom-s ns"});
  std::uint64_t element = 1;
  for (const std::size_t s : {4, 16}) {
    for (const sim::Slot win : {1000, 10000, 100000}) {
      treap::SDominanceSet set(s, args.seed);
      hash::HashFunction h(args.hash_kind, args.seed + 7);
      sim::Slot t = 0;
      for (; t < win; ++t) {  // warm to steady state
        set.expire(t);
        set.observe(element, h(element), t + win);
        ++element;
      }
      const std::uint64_t swept0 = set.swept_tuples();
      const std::uint64_t updates0 = set.updates();
      util::RunningStat size_stat;
      util::Timer timer;
      for (const sim::Slot end = win + kTimedUpdates; t < end; ++t) {
        set.expire(t);
        set.observe(element, h(element), t + win);
        ++element;
        if ((t & 63) == 0) size_stat.add(static_cast<double>(set.size()));
      }
      const double ns_per_update =
          timer.elapsed_seconds() * 1e9 / kTimedUpdates;
      const double swept_per_update =
          static_cast<double>(set.swept_tuples() - swept0) /
          static_cast<double>(set.updates() - updates0);
      std::vector<treap::Candidate> bottom;
      util::Timer bottom_timer;
      constexpr int kBottomCalls = 20000;
      for (int i = 0; i < kBottomCalls; ++i) {
        set.bottom_s_into(bottom);
      }
      const double bottom_ns =
          bottom_timer.elapsed_seconds() * 1e9 / kBottomCalls;
      t2.add_row({util::fmt(static_cast<std::uint64_t>(s)),
                  util::fmt(static_cast<std::uint64_t>(win)),
                  util::fmt(size_stat.mean(), 4),
                  util::fmt(swept_per_update, 4),
                  util::fmt(ns_per_update, 4), util::fmt(bottom_ns, 4)});
    }
  }
  bench::emit(t2,
              "A7b: flat SDominanceSet — update cost vs |T| "
              "(all-distinct stream)",
              "abl7_order_stats.csv", args);
  return 0;
}
