#include "baseline/fullsync_bottom_s.h"

#include "util/rng.h"

namespace dds::baseline {

BottomSSlidingSite::BottomSSlidingSite(sim::NodeId id, sim::NodeId coordinator,
                                       std::size_t sample_size,
                                       sim::Slot window,
                                       hash::HashFunction hash_fn,
                                       std::uint64_t seed)
    : id_(id),
      coordinator_(coordinator),
      sampler_(sample_size, window, std::move(hash_fn), seed) {}

void BottomSSlidingSite::on_slot_begin(sim::Slot t, net::Transport& bus) {
  sync(t, bus);
}

void BottomSSlidingSite::on_element(stream::Element element, sim::Slot t,
                                    net::Transport& bus) {
  sampler_.observe(element, t);
  sync(t, bus);
}

void BottomSSlidingSite::on_element_batch(
    std::span<const std::uint64_t> elements, sim::Slot t, net::Transport& bus) {
  const std::size_t n = elements.size();
  if (hash_scratch_.size() < n) hash_scratch_.resize(n);
  sampler_.hash_fn().hash_batch(elements.data(), n, hash_scratch_.data());
  for (std::size_t i = 0; i < n; ++i) {
    // observe_hashed keeps the per-element expire so the sync() below
    // sees the exact same candidate set as element-at-a-time ingest.
    sampler_.observe_hashed(elements[i], hash_scratch_[i], t);
    sync(t, bus);
    bus.drain();  // per-element drain boundary (batch contract)
  }
}

void BottomSSlidingSite::resync(net::Transport& bus) {
  shipped_.clear();
  sync(bus.now(), bus);
}

void BottomSSlidingSite::restore_candidates(
    const std::vector<treap::Candidate>& items) {
  sampler_.load_candidates(items);
  shipped_.clear();
}

void BottomSSlidingSite::sync(sim::Slot now, net::Transport& bus) {
  sampler_.sample_into(now, bottom_);
  // Both the memo and the new bottom-s are (hash, element)-ordered and
  // an element's hash never changes, so one merge walk finds each
  // tuple's previous copy. Ship the tuples whose (element, expiry) the
  // coordinator has not seen, in bottom-s order; tuples that left the
  // local bottom-s age out of the coordinator pool on their own.
  std::size_t j = 0;
  for (const auto& c : bottom_) {
    while (j < shipped_.size() &&
           (shipped_[j].hash < c.hash ||
            (shipped_[j].hash == c.hash && shipped_[j].element < c.element))) {
      ++j;
    }
    if (j < shipped_.size() && shipped_[j].element == c.element &&
        shipped_[j].expiry == c.expiry) {
      continue;
    }
    sim::Message msg;
    msg.from = id_;
    msg.to = coordinator_;
    msg.type = sim::MsgType::kSlidingReport;
    msg.a = c.element;
    msg.b = c.hash;
    msg.c = static_cast<std::uint64_t>(c.expiry);
    bus.send(msg);
  }
  shipped_.swap(bottom_);
}

BottomSSlidingCoordinator::BottomSSlidingCoordinator(sim::NodeId id,
                                                     std::size_t sample_size)
    : pool_(sample_size, util::derive_seed(0x62735363ULL /*"bsSc"*/, id)) {}

void BottomSSlidingCoordinator::on_message(const sim::Message& msg,
                                           net::Transport& bus) {
  if (msg.type != sim::MsgType::kSlidingReport) return;
  // Expired tuples leave first so the dominance sweep never walks them.
  pool_.expire(bus.now());
  // insert() keeps the freshest expiry for a re-reported element and
  // drops tuples (incoming or stored) once s smaller-hash, later-expiry
  // reports dominate them — they can never re-enter the bottom-s.
  pool_.insert(msg.a, msg.b, static_cast<sim::Slot>(msg.c));
}

std::vector<treap::Candidate> BottomSSlidingCoordinator::sample(
    sim::Slot now) const {
  std::vector<treap::Candidate> out;
  sample_into(now, out);
  return out;
}

void BottomSSlidingCoordinator::sample_into(
    sim::Slot now, std::vector<treap::Candidate>& out) const {
  pool_.expire(now);
  pool_.bottom_s_into(out);
}

}  // namespace dds::baseline
