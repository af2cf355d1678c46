#include "workloads.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "baseline/baseline_system.h"
#include "core/system.h"
#include "net/socket_transport.h"
#include "net/udp_transport.h"
#include "sim/serial_engine.h"
#include "stream/churn.h"
#include "stream/partitioner.h"
#include "stream/trace_synth.h"
#include "trace.h"
#include "treap/dominance_set.h"
#include "treap/s_dominance_set.h"
#include "util/rng.h"

namespace perfbench {

void SpanTracer::calibrate() {
  constexpr int kSpans = 20000;
  constexpr int kRounds = 7;
  std::array<double, kRounds> inside{}, total{};
  for (int r = 0; r < kRounds; ++r) {
    SpanTracer probe;  // uncalibrated: reads raw durations
    probe.begin(Span::kBench);
    for (int i = 0; i < kSpans; ++i) {
      probe.begin(Span::kQueryMerge);
      probe.end();
    }
    probe.end();
    inside[r] = probe.totals(Span::kQueryMerge).inclusive_ns / kSpans;
    total[r] = probe.totals(Span::kBench).inclusive_ns / kSpans;
  }
  std::sort(inside.begin(), inside.end());
  std::sort(total.begin(), total.end());
  inside_ns_ = inside[kRounds / 2];
  total_ns_ = total[kRounds / 2];
}

namespace {

using namespace dds;

// ------------------------------------------------------------ helpers --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The fastest of `v` (0 when empty). Timings are summarized this way.
/// Every pass repeats the same work on the same input, so the samples of
/// one piece of work differ only by the machine, and on a shared host its
/// speed drifts by up to ~1.4x for spells from tens of milliseconds to
/// minutes; the drift only ever adds time. A median or a mean follows the
/// share of the run the machine spent slow, which differs from run to
/// run, and so does a mean of the fastest quarter once the machine is
/// slow for most of a run. The fastest sample is what runs at different
/// times agree on as long as the piece of work ran undisturbed once.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile of `v` (sorted in place).
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Heap bytes in use now (all arenas, mmapped chunks included), in MiB.
double heap_in_use_mb() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The pre-generated arrival list, in structure-of-arrays form.
struct Input {
  std::vector<std::uint64_t> elements;
  std::vector<std::uint32_t> sites;
  std::vector<sim::Slot> slots;

  std::size_t size() const noexcept { return elements.size(); }
  std::uint64_t num_slots() const noexcept {
    return slots.empty() ? 0 : static_cast<std::uint64_t>(slots.back() + 1);
  }
};

Input collect(sim::ArrivalSource& source, std::size_t limit) {
  Input in;
  in.elements.reserve(limit);
  in.sites.reserve(limit);
  in.slots.reserve(limit);
  while (in.size() < limit) {
    const auto a = source.next();
    if (!a) break;
    in.elements.push_back(a->element);
    in.sites.push_back(a->site);
    in.slots.push_back(a->slot);
  }
  return in;
}

/// Replays the input without copying it.
class InputSource final : public sim::ArrivalSource {
 public:
  explicit InputSource(const Input& in) : in_(in) {}
  std::optional<sim::Arrival> next() override {
    if (pos_ == in_.size()) return std::nullopt;
    const std::size_t i = pos_++;
    return sim::Arrival{in_.slots[i], in_.sites[i], in_.elements[i]};
  }

 private:
  const Input& in_;
  std::size_t pos_ = 0;
};

/// Answers captured during a pass, checked after it.
struct Answers {
  std::vector<std::uint64_t> data;
  std::vector<std::size_t> offsets;  ///< answer q is data[offsets[q], offsets[q+1])
  std::vector<std::size_t> query;    ///< query index of answer q
  std::vector<sim::Slot> slot;       ///< query slot of answer q

  void clear() {
    data.clear();
    offsets.assign(1, 0);
    query.clear();
    slot.clear();
  }
  void close(std::size_t q, sim::Slot now) {
    offsets.push_back(data.size());
    query.push_back(q);
    slot.push_back(now);
  }
  std::size_t size() const noexcept { return query.size(); }
  std::span<const std::uint64_t> at(std::size_t i) const {
    return {data.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  std::uint64_t digest() const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const std::uint64_t v : data) h = fnv(h, v);
    for (const std::size_t o : offsets) h = fnv(h, o);
    return h;
  }
};

/// The substrate calls a workload's sites make, replayed outside the
/// deployment and timed per slot ("slot" part: per-slot expiry; "arrival"
/// part: the per-arrival calls).
struct TreapReplay {
  double slot_ns = 0.0;
  double arrival_ns = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t observe_calls = 0;
  std::uint64_t swept = 0;
  std::uint64_t updates = 0;
  double mean_size = 0.0;   ///< tuples per set, averaged over the slots
  double site_tuples = 0.0; ///< tuples over a site's sets, averaged likewise
  double total_ns() const noexcept { return slot_ns + arrival_ns; }
};

enum class Layer : std::uint8_t { kCore, kBaseline };

/// Keeps replayed results live, so the compiler cannot drop the work.
volatile std::uint64_t replay_sink = 0;

/// Time to hash every input element with every function in `fns`, in ns
/// (the work the sites' hash calls do in one pass).
double replay_hashes(const Input& input,
                     const std::vector<hash::HashFunction>& fns) {
  const std::int64_t t0 = now_ns();
  std::uint64_t acc = 0;
  for (const std::uint64_t e : input.elements) {
    for (const auto& h : fns) acc ^= h(e);
  }
  const std::int64_t t1 = now_ns();
  replay_sink = replay_sink ^ acc;
  return static_cast<double>(t1 - t0);
}

// --------------------------------------------------------- workloads --
//
// Each workload provides: its System and Traits, the input and the
// reference, the query and its check, and the hash / substrate replays
// that stand in for the layers the site calls internally. See README.md
// for why each workload exists.

/// The exact window bottom-s baseline on the bus, Enron-calibrated trace.
struct SlidingExactEnron {
  using Traits = baseline::BottomSSlidingTraits;
  using System = baseline::BottomSSlidingSystem;
  using Site = Traits::Site;
  static constexpr Layer kSiteLayer = Layer::kBaseline;
  static constexpr std::uint32_t kSites = 8;
  static constexpr std::size_t kSampleSize = 16;
  static constexpr sim::Slot kWindow = 1000;
  static constexpr std::uint32_t kPerSlot = 8;
  static constexpr std::size_t kArrivals = 100'000;
  /// The input is kSegments independent Enron-calibrated traces back to
  /// back (each 2000 arrivals, its own element identities). A heavy
  /// hitter whose hash lands in a site's bottom-s is re-shipped on every
  /// arrival, so one trace's message count depends on which heavy hitters
  /// the seed favours: across ten seeds the interquartile spread of
  /// msgs_per_arrival was 0.14 with 8 segments, 0.095 with 25 and 0.04
  /// with 50.
  static constexpr std::size_t kSegments = 50;
  static constexpr double kSegmentScale =
      (static_cast<double>(kArrivals) / kSegments) / 1'557'491.0;
  /// The query is timed as this many back-to-back sample(now) calls (see
  /// SlidingUdpChurn::kQueryRepeats); timed singly, the p99 of this ~1 µs
  /// call spread 0.15-0.29 across ten seeds.
  static constexpr int kQueryRepeats = 8;
  /// One query slot in kCheckEvery is checked against the naive window.
  static constexpr std::uint64_t kCheckEvery = 32;

  core::SystemConfig config;
  Input input;
  std::vector<hash::HashFunction> hash_fns;
  std::vector<char> checked;  ///< per query slot
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> reference;
  std::vector<std::uint64_t> hashes;  ///< per arrival, for the replay
  std::vector<treap::Candidate> scratch;
  double sink = 0.0;

  explicit SlidingExactEnron(std::uint64_t seed)
      : config{kSites, kSampleSize, hash::HashKind::kMurmur2, seed} {
    config.window = kWindow;
    config.network.kind = net::TransportKind::kBus;
    std::vector<stream::Element> elements;
    elements.reserve(kArrivals);
    for (std::size_t j = 0; j < kSegments; ++j) {
      auto trace = stream::make_trace(stream::Dataset::kEnron, kSegmentScale,
                                      util::derive_seed(seed, 100 + j));
      const auto part = stream::drain(*trace);
      elements.insert(elements.end(), part.begin(), part.end());
    }
    stream::VectorStream trace(std::move(elements));
    stream::SlottedFeeder source(trace, kSites, kPerSlot,
                                 util::derive_seed(seed, 2));
    input = collect(source, kArrivals);
    hash_fns.push_back(make()->hash_fn());
    hashes.resize(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
      hashes[i] = hash_fns.front()(input.elements[i]);
    }
    util::Xoshiro256StarStar rng(util::derive_seed(seed, 3));
    checked.resize(queries_per_pass());
    for (std::size_t q = 0; q < checked.size(); ++q) {
      checked[q] = rng.next_below(kCheckEvery) == 0 ? 1 : 0;
      if (checked[q] != 0) reference.emplace(q, naive(static_cast<sim::Slot>(q)));
    }
  }

  /// The window bottom-s at `now`, recomputed from the raw arrivals:
  /// (element, hash, expiry) triples, hash-ascending.
  std::vector<std::uint64_t> naive(sim::Slot now) const {
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, sim::Slot>> last;
    const sim::Slot from = now - kWindow + 1;
    for (std::size_t i = 0; i < input.size() && input.slots[i] <= now; ++i) {
      if (input.slots[i] < from) continue;
      last[input.elements[i]] = {hashes[i], input.slots[i]};
    }
    std::vector<std::tuple<std::uint64_t, std::uint64_t, sim::Slot>> all;
    for (const auto& [e, hs] : last) all.emplace_back(hs.first, e, hs.second);
    std::sort(all.begin(), all.end());
    std::vector<std::uint64_t> out;
    for (std::size_t j = 0; j < all.size() && j < kSampleSize; ++j) {
      out.push_back(std::get<1>(all[j]));
      out.push_back(std::get<0>(all[j]));
      out.push_back(static_cast<std::uint64_t>(std::get<2>(all[j]) + kWindow));
    }
    return out;
  }

  std::unique_ptr<System> make() const {
    return std::make_unique<System>(config);
  }

  std::uint64_t observe_every() const { return kPerSlot; }
  std::size_t queries_per_pass() const { return input.size() / kPerSlot; }
  bool captured(std::size_t q) const { return checked[q] != 0; }

  double query(System& sys, sim::Slot now, std::vector<std::uint64_t>* out,
               SpanTracer* tracer) {
    const std::int64_t t0 = now_ns();
    std::vector<treap::Candidate> answer;
    {
      Scope s(tracer, Span::kQueryMerge);
      for (int r = 0; r < kQueryRepeats; ++r) {
        answer = sys.sample(now);
        sink += static_cast<double>(answer.size());
      }
    }
    const std::int64_t t1 = now_ns();
    if (out != nullptr) {
      std::sort(answer.begin(), answer.end(), [](const auto& a, const auto& b) {
        return std::pair(a.hash, a.element) < std::pair(b.hash, b.element);
      });
      for (const auto& c : answer) {
        out->push_back(c.element);
        out->push_back(c.hash);
        out->push_back(static_cast<std::uint64_t>(c.expiry));
      }
    }
    return static_cast<double>(t1 - t0) / kQueryRepeats;
  }

  bool check(std::size_t q, sim::Slot /*now*/,
             std::span<const std::uint64_t> answer) const {
    const auto it = reference.find(q);
    return it != reference.end() &&
           std::equal(answer.begin(), answer.end(), it->second.begin(),
                      it->second.end());
  }

  /// The SDominanceSet calls of BottomSSlidingSite: per slot, a sync
  /// (expire + bottom_s_into) at every site; per arrival, observe
  /// (expire + observe) and a sync.
  TreapReplay replay_treap() {
    std::vector<treap::SDominanceSet> sets;
    sets.reserve(kSites);
    for (std::uint32_t i = 0; i < kSites; ++i) {
      sets.emplace_back(kSampleSize, util::derive_seed(config.seed, 0xB05 + i));
    }
    TreapReplay r;
    double size_sum = 0.0;
    std::size_t i = 0;
    while (i < input.size()) {
      const sim::Slot t = input.slots[i];
      const std::int64_t t0 = now_ns();
      for (auto& set : sets) {
        set.expire(t);
        set.bottom_s_into(scratch);
      }
      const std::int64_t t1 = now_ns();
      for (; i < input.size() && input.slots[i] == t; ++i) {
        auto& set = sets[input.sites[i]];
        set.expire(t);
        set.observe(input.elements[i], hashes[i], t + kWindow);
        set.expire(t);
        set.bottom_s_into(scratch);
      }
      const std::int64_t t2 = now_ns();
      r.slot_ns += static_cast<double>(t1 - t0);
      r.arrival_ns += static_cast<double>(t2 - t1);
      ++r.slots;
      for (const auto& set : sets) size_sum += static_cast<double>(set.size());
    }
    for (const auto& set : sets) {
      r.swept += set.swept_tuples();
      r.updates += set.updates();
    }
    r.observe_calls = input.size();
    r.mean_size = size_sum / static_cast<double>(r.slots * kSites);
    r.site_tuples = r.mean_size;
    return r;
  }
};

/// Algorithms 3-4 (s parallel copies) over real UDP on loopback, with two
/// coordinator shards, on a churn stream.
struct SlidingUdpChurn {
  using Traits = core::SlidingTraits;
  using System = core::SlidingSystem;
  using Site = Traits::Site;
  static constexpr Layer kSiteLayer = Layer::kCore;
  static constexpr std::uint32_t kSites = 16;
  static constexpr std::size_t kCopies = 4;
  static constexpr sim::Slot kWindow = 200;
  static constexpr std::uint32_t kShards = 2;
  static constexpr std::uint32_t kPerSlot = 16;
  static constexpr double kFresh = 0.3;
  static constexpr std::size_t kArrivals = 160'000;
  /// The query is timed as this many back-to-back sample(now) calls and
  /// the latency sample is their mean: one call takes ~0.3 µs, and timed
  /// singly its median moved 0.25-0.48 µs between runs of one seed.
  static constexpr int kQueryRepeats = 8;

  core::SystemConfig config;
  Input input;
  std::vector<hash::HashFunction> hash_fns;  ///< one per copy
  std::vector<std::vector<std::uint64_t>> hashes;  ///< [copy][arrival]
  std::vector<std::uint32_t> owner;                ///< shard per arrival
  /// Slots at which each element arrives (ascending).
  std::unordered_map<std::uint64_t, std::vector<sim::Slot>> arrivals_of;
  double sink = 0.0;

  explicit SlidingUdpChurn(std::uint64_t seed)
      : config{kSites, kCopies, hash::HashKind::kMurmur2, seed} {
    config.window = kWindow;
    config.num_shards = kShards;
    config.network.kind = net::TransportKind::kUdp;
    config.network.seed = util::derive_seed(seed, 4);
    stream::ChurnStream churn(kArrivals, kFresh,
                              static_cast<std::size_t>(kWindow) * kPerSlot,
                              util::derive_seed(seed, 1));
    stream::SlottedFeeder source(churn, kSites, kPerSlot,
                                 util::derive_seed(seed, 2));
    input = collect(source, kArrivals);
    for (std::size_t i = 0; i < input.size(); ++i) {
      arrivals_of[input.elements[i]].push_back(input.slots[i]);
    }
    const auto probe = make();
    hashes.resize(kCopies);
    for (std::size_t j = 0; j < kCopies; ++j) {
      hash_fns.push_back(probe->family().at(j));
      hashes[j].resize(input.size());
      for (std::size_t i = 0; i < input.size(); ++i) {
        hashes[j][i] = hash_fns[j](input.elements[i]);
      }
    }
    owner.resize(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
      owner[i] = probe->router().owner(input.elements[i]);
    }
  }

  std::unique_ptr<System> make() const {
    return std::make_unique<System>(config);
  }

  std::uint64_t observe_every() const { return kPerSlot; }
  std::size_t queries_per_pass() const { return input.size() / kPerSlot; }
  bool captured(std::size_t /*q*/) const { return true; }

  double query(System& sys, sim::Slot now, std::vector<std::uint64_t>* out,
               SpanTracer* tracer) {
    const std::int64_t t0 = now_ns();
    std::vector<stream::Element> answer;
    {
      Scope s(tracer, Span::kQueryMerge);
      for (int r = 0; r < kQueryRepeats; ++r) {
        answer = sys.sample(now);
        sink += static_cast<double>(answer.size());
      }
    }
    const std::int64_t t1 = now_ns();
    if (out != nullptr) out->insert(out->end(), answer.begin(), answer.end());
    return static_cast<double>(t1 - t0) / kQueryRepeats;
  }

  /// The lazy protocol's guarantee: every returned element arrived
  /// somewhere within the window (now - w, now].
  bool check(std::size_t /*q*/, sim::Slot now,
             std::span<const std::uint64_t> answer) const {
    if (answer.size() > kCopies) return false;
    for (const std::uint64_t e : answer) {
      const auto it = arrivals_of.find(e);
      if (it == arrivals_of.end()) return false;
      const auto& slots = it->second;
      const auto pos = std::upper_bound(slots.begin(), slots.end(), now);
      if (pos == slots.begin() || *std::prev(pos) <= now - kWindow) return false;
    }
    return true;
  }

  /// The DominanceSet calls of the routed SlidingWindowSite copies: per
  /// slot, expire on every (site, shard, copy) set; per arrival, observe
  /// on the owner shard's s copies.
  TreapReplay replay_treap() {
    constexpr std::size_t kSets = kSites * kShards * kCopies;
    std::vector<treap::DominanceSet> sets;
    sets.reserve(kSets);
    for (std::size_t j = 0; j < kSets; ++j) {
      sets.emplace_back(util::derive_seed(config.seed, 0xD800ULL + j),
                        config.substrate);
    }
    TreapReplay r;
    double size_sum = 0.0;
    std::size_t i = 0;
    while (i < input.size()) {
      const sim::Slot t = input.slots[i];
      const std::int64_t t0 = now_ns();
      for (auto& set : sets) set.expire(t);
      const std::int64_t t1 = now_ns();
      for (; i < input.size() && input.slots[i] == t; ++i) {
        const std::size_t base =
            (input.sites[i] * kShards + owner[i]) * kCopies;
        for (std::size_t j = 0; j < kCopies; ++j) {
          sets[base + j].observe(input.elements[i], hashes[j][i], t + kWindow);
        }
      }
      const std::int64_t t2 = now_ns();
      r.slot_ns += static_cast<double>(t1 - t0);
      r.arrival_ns += static_cast<double>(t2 - t1);
      ++r.slots;
      for (const auto& set : sets) size_sum += static_cast<double>(set.size());
    }
    r.observe_calls = input.size() * kCopies;
    r.mean_size = size_sum / static_cast<double>(r.slots * kSets);
    r.site_tuples = size_sum / static_cast<double>(r.slots * kSites);
    return r;
  }
};

// ----------------------------------------------------------- harness --

/// What one pass measured.
struct PassStats {
  double wall_ns = 0.0;
  double heap_growth_mb = 0.0;
  double state_tuples = 0.0;  ///< mean per-site state over the queries
  net::BusCounters counters;
  std::uint64_t frames = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t route_hits = 0;
  std::uint64_t route_lookups = 0;
};

/// A pass is cut into chunks of this many consecutive queries and the
/// arrivals between them. The pass time is summarized per chunk position
/// over the passes (see fastest()): the machine's slow spells
/// last from tens of milliseconds up, so a chunk of about 50 ms usually
/// falls in one of them or outside, while a whole pass often straddles
/// some. A pass must issue at least this many queries, so that ten
/// query positions lie beyond the 99th percentile.
constexpr std::size_t kChunkQueries = 1000;

std::vector<double>& at(std::vector<std::vector<double>>& v, std::size_t i) {
  if (v.size() <= i) v.resize(i + 1);
  return v[i];
}

double sum_fastest(const std::vector<std::vector<double>>& v) {
  double sum = 0.0;
  for (const auto& samples : v) sum += fastest(samples);
  return sum;
}

template <typename W>
class Harness {
 public:
  using System = typename W::System;
  using Site = typename W::Site;

  Harness(const RunOptions& options, W& w) : options_(options), w_(w) {
    latencies_.reserve(w_.queries_per_pass());
  }

  /// Times `samples` constructions of a deployment (each destroyed
  /// before the next is built).
  void measure_setup(std::size_t samples) {
    for (std::size_t i = 0; i < samples; ++i) {
      const std::int64_t t0 = now_ns();
      auto sys = w_.make();
      setup_s_.push_back(seconds_since(t0));
    }
  }

  /// One pass over the whole input; traced when `tracer` is set.
  PassStats pass(SpanTracer* tracer) {
    PassStats st;
    std::unique_ptr<Wiring> wiring;  // traced passes only; outlives `sys`
    answers_.clear();
    latencies_.clear();
    const double heap0 = heap_in_use_mb();
    const std::int64_t c0 = now_ns();
    auto sys = w_.make();
    setup_s_.push_back(seconds_since(c0));

    double state_sum = 0.0;
    std::size_t q = 0;
    auto observer = [&](const sim::Progress& p) {
      if (p.final_snapshot) return;
      Scope bench(tracer, Span::kBench);
      const bool keep = w_.captured(q);
      latencies_.push_back(
          w_.query(*sys, p.slot, keep ? &answers_.data : nullptr, tracer));
      if (keep) answers_.close(q, p.slot);
      state_sum += static_cast<double>(sys->total_site_state()) /
                   static_cast<double>(sys->num_sites());
      ++q;
      if (tracer == nullptr && q % kChunkQueries == 0) marks_.push_back(now_ns());
    };

    InputSource source(input());
    if (tracer == nullptr) {
      sys->runner().set_observer(w_.observe_every(), observer);
      marks_.clear();
      const std::int64_t t0 = now_ns();
      sys->run(source);
      const std::int64_t t1 = now_ns();
      st.wall_ns = static_cast<double>(t1 - t0);
      record_chunks(t0, t1);
    } else {
      wiring = std::make_unique<Wiring>(sys->bus(), *tracer);
      st.wall_ns = traced_run(*sys, *wiring, source, observer, *tracer);
    }
    st.heap_growth_mb = heap_in_use_mb() - heap0;
    st.state_tuples = q == 0 ? 0.0 : state_sum / static_cast<double>(q);
    st.counters = sys->bus().counters();
    if (const auto* sock =
            dynamic_cast<const net::SocketTransport*>(&sys->bus())) {
      st.frames = sock->socket_stats().frames_sent;
    }
    if (const auto* udp = dynamic_cast<const net::UdpTransport*>(&sys->bus())) {
      st.retransmits = udp->conn_totals().retransmits;
    }
    if (wiring == nullptr) {
      st.route_hits = sys->route_cache_hits();
      st.route_lookups = sys->route_cache_lookups();
    } else {
      for (const auto& site : wiring->sites) {
        st.route_hits += site->route_cache().hits();
        st.route_lookups += site->route_cache().lookups();
      }
    }
    sys.reset();

    check_answers();
    queries_ += q;
    return st;
  }

  std::uint64_t answers_digest() const { return answers_.digest(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t queries() const { return queries_; }
  /// Untraced passes, in ns: the pass time, as the sum over chunk
  /// positions of each position's fastest time over the passes.
  double pass_ns() const { return sum_fastest(chunk_ns_); }
  /// Percentile `p` of the query latencies, in ns, over the query
  /// positions of a pass, each position summarized by its fastest
  /// latency over the untraced passes. Every pass issues the same queries
  /// on the same state, so a query that is slow because of
  /// the work it does is slow in every pass and stays in the tail, while
  /// one an interrupt or a slow spell of the machine hit in some passes
  /// does not. The tail of raw latencies is mostly such hits: a query of a
  /// few µs catches a timer tick or a cold cache in about 1% of calls, so
  /// a raw 99th percentile sat right at that edge and moved 20-30% between
  /// runs of the same code.
  double query_percentile_ns(double p) const {
    std::vector<double> per_query;
    per_query.reserve(query_ns_.size());
    for (const auto& samples : query_ns_) {
      per_query.push_back(fastest(samples));
    }
    return percentile(per_query, p);
  }
  /// Query positions in a pass, and latency samples over all passes.
  std::size_t query_positions() const { return query_ns_.size(); }
  std::uint64_t query_samples() const { return query_samples_; }
  const std::vector<double>& setup_samples() const { return setup_s_; }
  const Input& input() const { return w_.input; }

 private:
  /// Files the pass's chunk times (the last chunk runs to the end of the
  /// pass) and its query latencies, both by position.
  void record_chunks(std::int64_t start, std::int64_t stop) {
    marks_.push_back(stop);
    for (std::size_t c = 0; c < marks_.size(); ++c) {
      const std::int64_t from = c == 0 ? start : marks_[c - 1];
      at(chunk_ns_, c).push_back(static_cast<double>(marks_[c] - from));
    }
    for (std::size_t q = 0; q < latencies_.size(); ++q) {
      at(query_ns_, q).push_back(latencies_[q]);
    }
    query_samples_ += latencies_.size();
  }

  /// The traced pass's forwarding objects. pass() declares them before
  /// the deployment, so they outlive it: the deployment's transport keeps
  /// pointers to the re-attached nodes until it is destroyed.
  struct Wiring {
    Wiring(net::Transport& inner, SpanTracer& tracer) : net(inner, tracer) {}
    TracedTransport net;
    std::vector<std::unique_ptr<TracedCoordinator>> coordinators;
    std::vector<std::unique_ptr<TracedSite<Site>>> sites;
  };

  /// Drives the deployment's own nodes through a benchmark-owned engine
  /// over a TracedTransport, every node wrapped in spans.
  template <typename Observer>
  double traced_run(System& sys, Wiring& wiring, sim::ArrivalSource& source,
                    Observer& observer, SpanTracer& tracer) {
    net::Transport& inner = sys.bus();
    for (std::uint32_t j = 0; j < sys.num_shards(); ++j) {
      wiring.coordinators.push_back(std::make_unique<TracedCoordinator>(
          sys.coordinator_mut(j), wiring.net, tracer));
      inner.attach(inner.coordinator_id(j), wiring.coordinators.back().get());
    }
    std::vector<sim::StreamNode*> nodes;
    const core::ShardRouter* router =
        sys.num_shards() > 1 ? &sys.router() : nullptr;
    for (std::uint32_t i = 0; i < sys.num_sites(); ++i) {
      std::vector<Site*> copies;
      for (std::uint32_t j = 0; j < sys.num_shards(); ++j) {
        copies.push_back(&sys.site(i, j));
      }
      wiring.sites.push_back(std::make_unique<TracedSite<Site>>(
          std::move(copies), router, inner.coordinator_id(0), wiring.net,
          tracer));
      inner.attach(i, wiring.sites.back().get());
      nodes.push_back(wiring.sites.back().get());
    }
    sim::SerialEngine engine(wiring.net, nodes, W::Traits::kInvokeSlotBegin);
    engine.set_observer(w_.observe_every(), observer);
    const std::int64_t t0 = now_ns();
    {
      Scope root(&tracer, Span::kEngine);
      engine.run(source);
    }
    return static_cast<double>(now_ns() - t0);
  }

  void check_answers() {
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      std::span<const std::uint64_t> answer = answers_.at(i);
      std::vector<std::uint64_t> perturbed;
      if (options_.perturb_answer && i == answers_.size() / 2) {
        perturbed.assign(answer.begin(), answer.end());
        if (perturbed.empty()) {
          perturbed.push_back(0);
        } else {
          perturbed.front() ^= 1;
        }
        answer = perturbed;
      }
      ++attempted_;
      if (!w_.check(answers_.query[i], answers_.slot[i], answer)) ++failed_;
    }
  }

  const RunOptions& options_;
  W& w_;
  Answers answers_;
  std::vector<double> latencies_;
  std::vector<std::int64_t> marks_;  ///< chunk ends within the current pass
  /// Per chunk position and per query position, one value per untraced
  /// pass.
  std::vector<std::vector<double>> chunk_ns_, query_ns_;
  std::uint64_t query_samples_ = 0;
  std::vector<double> setup_s_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t queries_ = 0;
};

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit, std::uint64_t samples) {
  out.push_back(Metric{name, value, unit, samples});
}

template <typename F>
double median_of(const std::vector<PassStats>& passes, F f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const auto& p : passes) v.push_back(f(p));
  return median(v);
}

/// Set-up samples taken before each pass (the pass's own construction
/// adds one more). Spreading them over the run, always in the heap state
/// a finished pass leaves, keeps their summary from depending on when in
/// the run, or after how many passes, it was taken.
constexpr std::size_t kSetupSamplesPerPass = 4;

template <typename W>
void end_to_end(const RunOptions& options, W& w, RunResult& result) {
  Harness<W> d(options, w);
  const std::int64_t start = now_ns();
  std::vector<PassStats> passes;
  do {
    d.measure_setup(kSetupSamplesPerPass);
    passes.push_back(d.pass(nullptr));
  } while (seconds_since(start) < options.seconds);

  const double n = static_cast<double>(d.input().size());
  auto& out = result.metrics;
  const auto np = static_cast<std::uint64_t>(passes.size());
  if (d.query_positions() < kChunkQueries) {
    throw std::logic_error("a workload must issue at least " +
                           std::to_string(kChunkQueries) +
                           " queries per pass");
  }
  add(out, "arrivals_per_s", n / (d.pass_ns() * 1e-9), "arrivals/s", np);
  add(out, "msgs_per_arrival",
      median_of(passes, [&](const PassStats& p) {
        return static_cast<double>(p.counters.total) / n;
      }),
      "msgs", np);
  add(out, "wire_bytes_per_arrival",
      median_of(passes, [&](const PassStats& p) {
        return static_cast<double>(p.counters.bytes) / n;
      }),
      "bytes", np);
  const std::uint64_t nq = d.query_samples();
  add(out, "query_p50_us", d.query_percentile_ns(0.50) * 1e-3, "us", nq);
  add(out, "query_p99_us", d.query_percentile_ns(0.99) * 1e-3, "us", nq);
  add(out, "site_state_tuples",
      median_of(passes, [](const PassStats& p) { return p.state_tuples; }),
      "tuples", np);
  add(out, "heap_growth_mb",
      median_of(passes, [](const PassStats& p) { return p.heap_growth_mb; }),
      "MiB", np);
  add(out, "setup_s", fastest(d.setup_samples()), "s",
      static_cast<std::uint64_t>(d.setup_samples().size()));
  result.passes = np;
  result.attempted = d.attempted();
  result.failed = d.failed();
}

template <typename W>
void per_layer(const RunOptions& options, W& w, RunResult& result) {
  Harness<W> d(options, w);
  const std::int64_t start = now_ns();
  // Phase budgets, as shares of the run: untraced passes (the overhead
  // baseline), traced passes, then the hash and substrate replays.
  const double untraced_until = 0.25 * options.seconds;
  const double traced_until = 0.70 * options.seconds;
  const double hash_until = 0.80 * options.seconds;

  std::vector<PassStats> untraced;
  do {
    untraced.push_back(d.pass(nullptr));
    if (untraced.size() == 1) result.untraced_digest = d.answers_digest();
  } while (seconds_since(start) < untraced_until);

  SpanTracer tracer;
  std::vector<double> span_cost;
  std::vector<PassStats> traced;
  const std::uint64_t queries_before = d.queries();
  do {
    // The machine's speed drifts, so the span cost is measured afresh
    // right before each pass it corrects.
    tracer.calibrate();
    span_cost.push_back(tracer.total_ns());
    traced.push_back(d.pass(&tracer));
    if (traced.size() == 1) result.traced_digest = d.answers_digest();
  } while (seconds_since(start) < traced_until);

  std::vector<double> hash_ns;
  do {
    hash_ns.push_back(replay_hashes(w.input, w.hash_fns));
  } while (seconds_since(start) < hash_until);
  std::vector<TreapReplay> replays;
  do {
    replays.push_back(w.replay_treap());
  } while (seconds_since(start) < options.seconds && replays.size() < 64);

  const double n = static_cast<double>(d.input().size());
  const double passes = static_cast<double>(traced.size());
  const double arrivals = n * passes;
  double wall = 0.0, s2c = 0.0, c2s = 0.0, msgs = 0.0, frames = 0.0,
         retransmits = 0.0, hits = 0.0, lookups = 0.0, state = 0.0;
  for (const auto& p : traced) {
    wall += p.wall_ns;
    state += p.state_tuples;
    s2c += static_cast<double>(p.counters.site_to_coordinator);
    c2s += static_cast<double>(p.counters.coordinator_to_site);
    msgs += static_cast<double>(p.counters.total);
    frames += static_cast<double>(p.frames);
    retransmits += static_cast<double>(p.retransmits);
    hits += static_cast<double>(p.route_hits);
    lookups += static_cast<double>(p.route_lookups);
  }
  const double queries = static_cast<double>(d.queries() - queries_before);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto T = [&](Span s) -> const SpanTracer::Totals& {
    return tracer.totals(s);
  };
  const double slots = static_cast<double>(w.input.num_slots()) * passes;

  const double keys = static_cast<double>(w.hash_fns.size());
  const double ns_per_key = median(hash_ns) / (n * keys);
  const double hash_total = ns_per_key * keys * arrivals;
  std::vector<double> replay_ns;
  for (const auto& r : replays) replay_ns.push_back(r.total_ns());
  const double treap_total = median(replay_ns) * passes;
  const TreapReplay& r0 = replays.front();
  std::vector<double> observe_ns, expire_ns;
  for (const auto& r : replays) {
    observe_ns.push_back(ratio(r.arrival_ns, static_cast<double>(r.observe_calls)));
    expire_ns.push_back(ratio(r.slot_ns, static_cast<double>(r.slots)));
  }

  const double site_self = T(Span::kSiteElement).self_ns +
                           T(Span::kSiteSlotBegin).self_ns +
                           T(Span::kSiteMessage).self_ns;
  const double protocol =
      site_self + T(Span::kCoordinator).self_ns - hash_total - treap_total;
  const double sim_self = T(Span::kEngine).self_ns;
  const double router_self = T(Span::kRouter).self_ns;
  const double core_self =
      router_self + (W::kSiteLayer == Layer::kCore ? protocol : 0.0);
  const double baseline_self = W::kSiteLayer == Layer::kBaseline ? protocol : 0.0;
  const double net_self = T(Span::kNetSend).self_ns +
                          T(Span::kNetDrain).self_ns +
                          T(Span::kNetFinish).self_ns;
  const double query_self = T(Span::kQueryMerge).self_ns;
  const double layers = sim_self + hash_total + treap_total + core_self +
                        baseline_self + net_self + query_self;
  const double span_overhead = tracer.overhead_ns();
  const double unattributed = wall - layers - span_overhead;
  // How far the span-cost correction could be off: the range of the
  // calibrated cost over the passes, times the spans per arrival.
  double spans = 0.0;
  for (std::size_t k = 0; k < kNumSpans; ++k) {
    spans += static_cast<double>(tracer.totals(static_cast<Span>(k)).count);
  }
  const auto [cost_lo, cost_hi] =
      std::minmax_element(span_cost.begin(), span_cost.end());
  const double calibration_spread = (*cost_hi - *cost_lo) * spans;

  const double untraced_ns_per_arrival =
      median_of(untraced, [](const PassStats& p) { return p.wall_ns; }) / n;
  const bool core = W::kSiteLayer == Layer::kCore;
  const auto mean_ns = [&](Span s) {
    return ratio(T(s).inclusive_ns, static_cast<double>(T(s).count));
  };
  const auto self_ns = [&](Span s) {
    return ratio(T(s).self_ns, static_cast<double>(T(s).count));
  };
  const auto np = static_cast<std::uint64_t>(traced.size());
  const auto nr = static_cast<std::uint64_t>(replays.size());
  const auto nh = static_cast<std::uint64_t>(hash_ns.size());

  auto& out = result.metrics;
  add(out, "sim.engine_self_ns_per_arrival", sim_self / arrivals, "ns", np);
  add(out, "sim.slot_begin_ns_per_slot",
      ratio(T(Span::kSiteSlotBegin).inclusive_ns, slots), "ns", np);
  add(out, "hash.ns_per_key", ns_per_key, "ns", nh);
  add(out, "hash.keys_per_arrival", keys, "count", nh);
  add(out, "hash.self_ns_per_arrival", hash_total / arrivals, "ns", nh);
  add(out, "treap.observe_ns", median(observe_ns), "ns", nr);
  add(out, "treap.expire_ns_per_slot", median(expire_ns), "ns", nr);
  add(out, "treap.swept_per_update",
      ratio(static_cast<double>(r0.swept), static_cast<double>(r0.updates)),
      "tuples", nr);
  add(out, "treap.mean_size", r0.mean_size, "tuples", nr);
  add(out, "treap.self_ns_per_arrival", treap_total / arrivals, "ns", nr);
  add(out, "core.site.on_element_self_ns",
      core ? self_ns(Span::kSiteElement) : 0.0, "ns", np);
  add(out, "core.site.offer_frac", core ? s2c / arrivals : 0.0, "fraction", np);
  add(out, "core.coordinator.on_message_ns",
      core ? mean_ns(Span::kCoordinator) : 0.0, "ns", np);
  add(out, "core.coordinator.accept_frac", core ? ratio(c2s, s2c) : 0.0,
      "fraction", np);
  add(out, "core.router.owner_ns", mean_ns(Span::kRouter), "ns", np);
  add(out, "core.router.cache_hit_frac", ratio(hits, lookups), "fraction", np);
  add(out, "core.self_ns_per_arrival", core_self / arrivals, "ns", np);
  add(out, "baseline.site.on_element_self_ns",
      core ? 0.0 : self_ns(Span::kSiteElement), "ns", np);
  add(out, "baseline.coordinator.on_message_ns",
      core ? 0.0 : mean_ns(Span::kCoordinator), "ns", np);
  add(out, "baseline.site.sync_frac", core ? 0.0 : s2c / arrivals, "fraction",
      np);
  add(out, "baseline.self_ns_per_arrival", baseline_self / arrivals, "ns", np);
  add(out, "net.self_ns_per_msg", ratio(net_self, msgs), "ns", np);
  add(out, "net.self_ns_per_arrival", net_self / arrivals, "ns", np);
  add(out, "net.frames", frames / passes, "count", np);
  add(out, "net.retransmits", retransmits / passes, "count", np);
  add(out, "net.finish_ms", mean_ns(Span::kNetFinish) * 1e-6, "ms", np);
  add(out, "query.merge_ns", mean_ns(Span::kQueryMerge), "ns", np);
  add(out, "query.count", queries / passes, "count", np);
  add(out, "query.self_ns_per_arrival", query_self / arrivals, "ns", np);
  add(out, "trace.wall_ns_per_arrival", wall / arrivals, "ns", np);
  add(out, "trace.span_overhead_ns_per_arrival", span_overhead / arrivals,
      "ns", np);
  add(out, "trace.unattributed_ns_per_arrival", unattributed / arrivals, "ns",
      np);
  add(out, "trace.overhead_frac",
      wall / arrivals / untraced_ns_per_arrival - 1.0, "fraction", np);
  add(out, "trace.span_cost_ns", median(span_cost), "ns", np);
  add(out, "trace.calibration_spread_ns_per_arrival",
      calibration_spread / arrivals, "ns", np);

  result.passes = static_cast<std::uint64_t>(untraced.size());
  result.traced_passes = np;
  result.attempted = d.attempted();
  result.failed = d.failed();
  result.protocol_ns_per_arrival = protocol / arrivals;
  result.replay_site_tuples = r0.site_tuples;
  result.site_state_tuples = state / passes;
  // Tracing must not change what the deployment answers.
  if (result.untraced_digest != result.traced_digest) {
    ++result.attempted;
    ++result.failed;
  }
}

template <typename W>
RunResult run_workload(const RunOptions& options) {
  RunResult result;
  result.workload = options.workload;
  result.seed = options.seed;
  result.trace = options.trace;
  W w(options.seed);  // input generation and reference: untimed
  result.input_arrivals = w.input.size();
  result.input_slots = w.input.num_slots();
  if (options.trace) {
    per_layer(options, w, result);
  } else {
    end_to_end(options, w, result);
  }
  result.failed_frac =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  return result;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"sliding_exact_enron", "sliding_udp_churn"};
}

std::vector<std::string> end_to_end_names() {
  return {"arrivals_per_s",    "msgs_per_arrival", "wire_bytes_per_arrival",
          "query_p50_us",      "query_p99_us",     "site_state_tuples",
          "heap_growth_mb",    "setup_s"};
}

std::vector<std::string> per_layer_names() {
  return {"sim.engine_self_ns_per_arrival",
          "sim.slot_begin_ns_per_slot",
          "hash.ns_per_key",
          "hash.keys_per_arrival",
          "hash.self_ns_per_arrival",
          "treap.observe_ns",
          "treap.expire_ns_per_slot",
          "treap.swept_per_update",
          "treap.mean_size",
          "treap.self_ns_per_arrival",
          "core.site.on_element_self_ns",
          "core.site.offer_frac",
          "core.coordinator.on_message_ns",
          "core.coordinator.accept_frac",
          "core.router.owner_ns",
          "core.router.cache_hit_frac",
          "core.self_ns_per_arrival",
          "baseline.site.on_element_self_ns",
          "baseline.coordinator.on_message_ns",
          "baseline.site.sync_frac",
          "baseline.self_ns_per_arrival",
          "net.self_ns_per_msg",
          "net.self_ns_per_arrival",
          "net.frames",
          "net.retransmits",
          "net.finish_ms",
          "query.merge_ns",
          "query.count",
          "query.self_ns_per_arrival",
          "trace.wall_ns_per_arrival",
          "trace.span_overhead_ns_per_arrival",
          "trace.unattributed_ns_per_arrival",
          "trace.overhead_frac",
          "trace.span_cost_ns",
          "trace.calibration_spread_ns_per_arrival"};
}

RunResult run(const RunOptions& options) {
  if (options.workload == "sliding_exact_enron") {
    return run_workload<SlidingExactEnron>(options);
  }
  if (options.workload == "sliding_udp_churn") {
    return run_workload<SlidingUdpChurn>(options);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
