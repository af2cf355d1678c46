#include "treap/s_dominance_set.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dds::treap {

namespace {

/// (hash, element) order: the bottom-s order. Elements are unique in a
/// set, so this is a strict total order over its tuples.
constexpr bool hash_less(const Candidate& a, const Candidate& b) noexcept {
  if (a.hash != b.hash) return a.hash < b.hash;
  return a.element < b.element;
}

/// Inserts `c` into the (hash, element)-ordered `out`, keeping at most
/// `count` entries. The caller has checked that `c` belongs.
void bounded_insert(std::vector<Candidate>& out, const Candidate& c,
                    std::size_t count) {
  if (out.size() == count) out.pop_back();
  out.push_back(c);
  std::size_t p = out.size() - 1;
  while (p > 0 && hash_less(c, out[p - 1])) {
    out[p] = out[p - 1];
    --p;
  }
  out[p] = c;
}

}  // namespace

SDominanceSet::SDominanceSet(std::size_t sample_size, std::uint64_t /*seed*/)
    : s_(sample_size) {
  if (sample_size == 0) {
    throw std::invalid_argument("SDominanceSet: sample size must be positive");
  }
}

bool SDominanceSet::fold(std::uint64_t h) {
  if (held_ == s_) {
    if (h >= w_old_[s_ - 1]) return false;
  } else {
    ++held_;
  }
  // Insert h into the held slots and drop the last one in a single
  // branchless pass: out[i] = max(in[i-1], min(in[i], h)), with
  // in[-1] = 0. The newly held slot holds ~0, so it sorts last.
  std::uint64_t* w = w_old_.data();
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < held_; ++i) {
    const std::uint64_t in = w[i];
    const std::uint64_t lo = in < h ? in : h;
    w[i] = prev > lo ? prev : lo;
    prev = in;
  }
  return true;
}

std::uint64_t SDominanceSet::new_threshold() const noexcept {
  const std::size_t m = held_;
  const std::size_t n = newcomers_.size();
  std::uint64_t thr = ~std::uint64_t{0};
  if (m + n < s_) return thr;
  // The s-th smallest of two sorted arrays: over every split taking j
  // newcomers and s - j old hashes, the smallest split maximum.
  for (std::size_t j = s_ > m ? s_ - m : 0; j <= std::min(n, s_); ++j) {
    const std::uint64_t a = j < s_ ? w_old_[s_ - 1 - j] : 0;
    const std::uint64_t b = j > 0 ? newcomers_[j - 1] : 0;
    thr = std::min(thr, std::max(a, b));
  }
  return thr;
}

void SDominanceSet::observe(std::uint64_t element, std::uint64_t hash,
                            sim::Slot expiry) {
  update(element, hash, expiry, /*newest=*/true);
}

void SDominanceSet::insert(std::uint64_t element, std::uint64_t hash,
                           sim::Slot expiry) {
  update(element, hash, expiry, /*newest=*/false);
}

// The dominance sweep. Walk equal-expiry groups in descending expiry
// order, maintaining W_old, the s smallest hashes of the strictly-later
// stored tuples (every stored tuple survives the pre-update state, by
// the standing invariant). Once the newcomers are placed, the state
// after the update has working set W_new = s-smallest(W_old ∪ N) for
// newcomer hashes N: a newly pruned victim v has s smaller survivors at
// its own judgment, so it could never enter W_new anyway and dropping
// it changes nothing. A stored tuple is newly prunable iff W_new is
// full and its hash exceeds max(W_new); a newcomer is itself dominated
// iff it fails the same test at its own position. Early exit: once
// W_new == W_old — W_old full and no newcomer below its maximum — every
// judgment below is identical to the pre-update state, which satisfied
// the invariant. Equal-expiry groups are judged atomically against the
// strictly-later working set, then folded, matching the "strictly
// later expiry" dominance rule. With n newcomers sharing one expiry
// every stored group below them is judged against all n hashes at
// once — exactly what n sequential sweeps converge to, because the
// survivor set is canonical in the live (hash, expiry) multiset.
bool SDominanceSet::sweep(const std::uint64_t* hashes, std::size_t n,
                          sim::Slot expiry) {
  w_old_.assign(s_, ~std::uint64_t{0});
  held_ = 0;
  victims_.clear();
  newcomers_.assign(hashes, hashes + n);
  std::sort(newcomers_.begin(), newcomers_.end());
  // Before placement W_new == W_old, which prunes nothing and rejects a
  // newcomer iff it is full and the newcomer's largest hash exceeds it.
  const auto rejected = [this]() {
    return held_ == s_ && newcomers_.back() > w_old_[s_ - 1];
  };
  const auto unchanged = [this]() {
    return held_ == s_ && newcomers_.front() >= w_old_[s_ - 1];
  };
  bool placed = false;
  // max(W_new) once placed; ~0 (prunes nothing) until then.
  std::uint64_t threshold = ~std::uint64_t{0};

  std::size_t i = items_.size();
  while (i > head_) {
    const sim::Slot group_expiry = items_[i - 1].expiry;
    // The newcomers form their own virtual group when their expiry
    // falls strictly between the previous group and this one.
    if (!placed && expiry > group_expiry) {
      if (rejected()) return true;
      if (unchanged()) return false;  // no hash entered the working set
      placed = true;
      threshold = new_threshold();
    }
    const bool with_new = !placed && expiry == group_expiry;
    const bool newcomers_rejected = with_new && rejected();
    // Judge each tuple of the group against the strictly-later working
    // set (the threshold moves only between groups) and fold it in.
    bool changed = false;
    do {
      --i;
      ++stat_swept_;
      const std::uint64_t h = items_[i].hash;
      if (h > threshold) victims_.push_back(i);
      changed |= fold(h);
    } while (i > head_ && items_[i - 1].expiry == group_expiry);
    if (newcomers_rejected) return true;
    if (with_new) placed = true;
    if (placed) {
      if (unchanged()) return false;
      if (changed || with_new) threshold = new_threshold();
    }
  }
  // The newcomers expire before everything stored (or the set is empty).
  return !placed && rejected();
}

void SDominanceSet::update(std::uint64_t element, std::uint64_t hash,
                           sim::Slot expiry, bool newest) {
  ++stat_updates_;
  bool refreshed = false;
  if (const std::size_t at = find(element); at != kNone) {
    if (items_[at].expiry >= expiry) return;  // stored copy is fresher
    erase_at(at);
    refreshed = true;
  }
  if (sweep(&hash, 1, expiry)) {
    // Only the coordinator-feedback path may offer a dominated tuple;
    // observe()'s newcomer has the newest expiry, hence no dominators.
    assert(!newest);
    assert(victims_.empty());
    if (refreshed) bottom_fresh_ = false;  // the stale copy is gone
    return;
  }
  (void)newest;
  erase_victims();
  const Candidate c{element, hash, expiry};
  place(c);
  bottom_offer(c);
}

void SDominanceSet::observe_group(const std::uint64_t* elements,
                                  const std::uint64_t* hashes, std::size_t n,
                                  sim::Slot expiry) {
  stat_updates_ += n;
  fresh_elems_.clear();
  fresh_hashes_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (const std::size_t at = find(elements[i]); at != kNone) {
      if (items_[at].expiry >= expiry) continue;  // stored copy is fresher
      erase_at(at);
    } else {
      // In-batch duplicate: its stale copy (if any) is already erased
      // and its fresh copy is pending, so sequential ingest would see a
      // stored copy at this very expiry and no-op. n stays small (the
      // ingest batch width), so a linear scan is enough.
      if (std::find(fresh_elems_.begin(), fresh_elems_.end(), elements[i]) !=
          fresh_elems_.end()) {
        continue;
      }
    }
    fresh_elems_.push_back(elements[i]);
    fresh_hashes_.push_back(hashes[i]);
  }
  if (fresh_elems_.empty()) return;

  // Rejection is impossible here: dominators need strictly later
  // expiry and the batch expiry is the maximum.
  const bool rejected =
      sweep(fresh_hashes_.data(), fresh_hashes_.size(), expiry);
  assert(!rejected);
  (void)rejected;
  erase_victims();
  for (std::size_t i = 0; i < fresh_elems_.size(); ++i) {
    const Candidate c{fresh_elems_[i], fresh_hashes_[i], expiry};
    place(c);
    bottom_offer(c);
  }
}

std::size_t SDominanceSet::find(std::uint64_t element) const noexcept {
  for (std::size_t i = head_; i < items_.size(); ++i) {
    if (items_[i].element == element) return i;
  }
  return kNone;
}

void SDominanceSet::erase_at(std::size_t i) {
  if (i - head_ < items_.size() - 1 - i) {
    std::move_backward(items_.begin() + static_cast<std::ptrdiff_t>(head_),
                       items_.begin() + static_cast<std::ptrdiff_t>(i),
                       items_.begin() + static_cast<std::ptrdiff_t>(i + 1));
    ++head_;
  } else {
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void SDominanceSet::erase_victims() {
  if (victims_.empty()) return;
  // victims_ is descending: walk it backwards to visit them in array
  // order while compacting the survivors left.
  std::size_t v = victims_.size();
  std::size_t out = victims_[v - 1];
  for (std::size_t in = out; in < items_.size(); ++in) {
    if (v > 0 && victims_[v - 1] == in) {
      --v;
      continue;
    }
    items_[out++] = items_[in];
  }
  items_.resize(out);
}

void SDominanceSet::make_room() {
  if (items_.size() < items_.capacity()) return;
  if (head_ > 0) {
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  if (2 * items_.size() > items_.capacity()) {
    items_.reserve(std::max<std::size_t>(16, 2 * items_.capacity()));
  }
}

void SDominanceSet::place(const Candidate& c) {
  make_room();
  items_.push_back(c);
  std::size_t p = items_.size() - 1;
  while (p > head_ && sample_key_less(c, items_[p - 1])) {
    items_[p] = items_[p - 1];
    --p;
  }
  items_[p] = c;
}

void SDominanceSet::bottom_offer(const Candidate& c) {
  if (!bottom_fresh_) return;
  if (bottom_.size() == s_ && hash_less(bottom_.back(), c)) return;
  // A refresh keeps its hash, hence its cache position: update in place.
  for (Candidate& b : bottom_) {
    if (b.element == c.element) {
      b.expiry = c.expiry;
      return;
    }
  }
  bounded_insert(bottom_, c, s_);
}

void SDominanceSet::expire(sim::Slot now) {
  // Sorted by expiry: expired tuples are a prefix. Removals cannot
  // create new dominators, so no re-prune is needed; only the loss of
  // a bottom-s member invalidates the cache.
  std::size_t h = head_;
  while (h < items_.size() && items_[h].expiry <= now) {
    if (bottom_fresh_ && (bottom_.size() < s_ ||
                          !hash_less(bottom_.back(), items_[h]))) {
      bottom_fresh_ = false;
    }
    ++h;
  }
  if (h == items_.size()) {
    items_.clear();
    head_ = 0;
  } else {
    head_ = h;
  }
}

void SDominanceSet::select_smallest(std::size_t from, std::size_t count,
                                    std::vector<Candidate>& out) const {
  out.clear();
  if (count == 0) return;
  for (std::size_t i = from; i < items_.size(); ++i) {
    if (out.size() < count || hash_less(items_[i], out.back())) {
      bounded_insert(out, items_[i], count);
    }
  }
}

void SDominanceSet::refresh_bottom() const {
  if (bottom_fresh_) return;
  select_smallest(head_, s_, bottom_);
  bottom_fresh_ = true;
}

std::vector<Candidate> SDominanceSet::bottom_s() const {
  std::vector<Candidate> out;
  bottom_s_into(out);
  return out;
}

void SDominanceSet::bottom_s_into(std::vector<Candidate>& out) const {
  refresh_bottom();
  out.assign(bottom_.begin(), bottom_.end());
}

void SDominanceSet::bottom_s_valid_after(sim::Slot min_expiry,
                                         std::vector<Candidate>& out) const {
  bottom_s_valid_after(min_expiry, s_, out);
}

void SDominanceSet::bottom_s_valid_after(sim::Slot min_expiry,
                                         std::size_t count,
                                         std::vector<Candidate>& out) const {
  const auto first_valid = std::partition_point(
      items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(),
      [min_expiry](const Candidate& c) { return c.expiry <= min_expiry; });
  const auto from = static_cast<std::size_t>(first_valid - items_.begin());
  if (from == head_ && count <= s_) {
    // Every tuple is valid: the answer is a prefix of the cache.
    refresh_bottom();
    out.assign(bottom_.begin(),
               bottom_.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(count, bottom_.size())));
    return;
  }
  select_smallest(from, count, out);
}

std::optional<Candidate> SDominanceSet::min_hash() const {
  refresh_bottom();
  if (bottom_.empty()) return std::nullopt;
  return bottom_.front();
}

bool SDominanceSet::contains(std::uint64_t element) const {
  return find(element) != kNone;
}

std::vector<Candidate> SDominanceSet::snapshot() const {
  return std::vector<Candidate>(
      items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end());
}

void SDominanceSet::clear() {
  items_.clear();
  head_ = 0;
  bottom_.clear();
  bottom_fresh_ = true;
}

void SDominanceSet::load_snapshot(const std::vector<Candidate>& items) {
  clear();
  for (const Candidate& c : items) insert(c.element, c.hash, c.expiry);
}

bool SDominanceSet::check_invariants() const {
  if (head_ > items_.size()) return false;
  const std::size_t n = items_.size();
  for (std::size_t i = head_; i < n; ++i) {
    if (i + 1 < n && !sample_key_less(items_[i], items_[i + 1])) return false;
    std::size_t dominators = 0;
    for (std::size_t j = head_; j < n; ++j) {
      if (j != i && items_[j].element == items_[i].element) return false;
      if (items_[j].expiry > items_[i].expiry &&
          items_[j].hash < items_[i].hash) {
        ++dominators;
      }
    }
    if (dominators >= s_) return false;
  }
  if (bottom_fresh_) {
    std::vector<Candidate> want;
    select_smallest(head_, s_, want);
    if (want != bottom_) return false;
  }
  return true;
}

}  // namespace dds::treap
