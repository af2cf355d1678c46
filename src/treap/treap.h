// A randomized search tree (treap; Seidel & Aragon 1996) — the data
// structure the paper prescribes for the sliding-window per-site
// candidate set T_i (Chapter 4). Keys are BST-ordered; heap priorities
// — a per-pool counter pushed through the mix64 finalizer, one cheap
// bijective hash per insert — keep the expected depth logarithmic.
//
// Storage layout: nodes live in one contiguous pool (std::vector) and
// children are 32-bit indices, not owning pointers. Erased slots are
// chained on an intrusive freelist (through the `left` field) and
// recycled in O(1), so steady-state insert/erase cycles perform zero
// heap allocations and traversals walk a compact array instead of
// chasing malloc'd nodes. All structural operations (split, merge,
// erase, drain) are iterative — no recursion, so adversarial shapes
// cannot overflow the call stack — using a scratch index stack that is
// reused across calls.
//
// Beyond the textbook operations this treap supports the bulk
// operations the dominance set needs, all via split/merge:
//   * remove-prefix-while(pred): detach the maximal prefix (in key order)
//     whose elements satisfy a *prefix-monotone* predicate;
//   * remove-suffix-while(pred): symmetric, for dominance pruning;
//   * remove-suffix-of-lower-while(bound, pred): the fused form of
//     split_off_lower + remove_suffix_while + absorb_lower, entirely
//     inside one pool (the dominance-pruning hot path).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dds::treap {

/// Ordered map on unique keys with expected O(log n) updates.
/// K must be strictly ordered by Compare; both K and V must be
/// copy-assignable (slots are recycled in place). Capacity is bounded
/// by ~4 billion live nodes (32-bit indices).
///
/// Every node occupies a stable pool slot: the slot index returned by
/// insert_slot() keeps addressing the same node until that node is
/// erased (or clear() is called), no matter how the tree rotates. This
/// is what lets callers build side-indexes keyed by slot — see
/// slot_index.h — instead of owning a second element->key hash map.
///
/// Subtree sizes are maintained on every path, so size() is O(1).
template <typename K, typename V, typename Compare = std::less<K>>
class Treap {
 public:
  /// Slot sentinel: "no such node". Returned by insert_slot() on
  /// duplicate keys and by find_slot() on misses.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  explicit Treap(std::uint64_t seed = 0x7265617021ULL)
      : prio_salt_(util::mix64(seed)) {}

  std::size_t size() const noexcept { return size_of(root_); }
  bool empty() const noexcept { return root_ == kNil; }

  /// Pre-sizes the node pool (optional; the pool also grows on demand).
  void reserve(std::size_t n) { pool_.reserve(n); }

  /// Slots currently held by the pool, live + free. Test hook for the
  /// zero-allocation steady state: insert/erase cycles must not grow it.
  std::size_t pool_slots() const noexcept { return pool_.size(); }

  /// Bytes reserved by the node pool (live + free + spare capacity).
  /// Footprint accounting for the multi-tenant memory comparison.
  std::size_t pool_bytes() const noexcept {
    return pool_.capacity() * sizeof(Node);
  }

  /// Prefetch hint: pulls the root node's cache line ahead of a descent.
  /// The batched ingest path issues this for element i+1 while element i
  /// is being processed.
  void prefetch_root() const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (root_ != kNil) __builtin_prefetch(&pool_[root_]);
#endif
  }

  /// Inserts key->value. Returns false (and leaves the key set
  /// unchanged) if the key is already present.
  bool insert(const K& key, const V& value) {
    return insert_slot(key, value) != kNoSlot;
  }

  /// Inserts key->value and returns the new node's pool slot, or
  /// kNoSlot (key set unchanged) if the key is already present. The
  /// slot stays valid — and key_at(slot)/value_at(slot) keep naming
  /// this entry — until the key is erased. Single root-to-leaf
  /// traversal: descend while ancestors out-prioritize the new node,
  /// then split only the subtree below the insertion point — the
  /// existence check rides along the same pass.
  std::uint32_t insert_slot(const K& key, const V& value) {
    const std::uint64_t prio = next_priority();
    path_.clear();
    std::uint32_t parent = kNil;
    bool went_left = false;
    std::uint32_t node = root_;
    while (node != kNil && pool_[node].priority >= prio) {
      Node& n = pool_[node];
      if (cmp_(key, n.key)) {
        path_.push_back(node);
        parent = node;
        went_left = true;
        node = n.left;
      } else if (cmp_(n.key, key)) {
        path_.push_back(node);
        parent = node;
        went_left = false;
        node = n.right;
      } else {
        return kNoSlot;  // present above the insertion point; untouched
      }
    }
    bool found = false;
    auto [lo, hi] = split(node, key, &found);
    std::uint32_t replacement;
    if (found) {
      replacement = merge(lo, hi);  // same keys, still a valid treap
    } else {
      replacement = acquire(key, value, prio);
      Node& f = pool_[replacement];
      f.left = lo;
      f.right = hi;
      update(replacement);
    }
    if (parent == kNil) {
      root_ = replacement;
    } else if (went_left) {
      pool_[parent].left = replacement;
    } else {
      pool_[parent].right = replacement;
    }
    if (found) return kNoSlot;
    for (std::uint32_t idx : path_) ++pool_[idx].size;
    return replacement;
  }

  /// Removes a key. Returns false if absent.
  bool erase(const K& key) {
    path_.clear();
    std::uint32_t* slot = &root_;
    std::uint32_t node = root_;
    while (node != kNil) {
      Node& n = pool_[node];
      if (cmp_(key, n.key)) {
        path_.push_back(node);
        slot = &n.left;
        node = n.left;
      } else if (cmp_(n.key, key)) {
        path_.push_back(node);
        slot = &n.right;
        node = n.right;
      } else {
        *slot = merge(n.left, n.right);
        release(node);
        for (std::uint32_t idx : path_) --pool_[idx].size;
        return true;
      }
    }
    return false;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Pointer to the value for key, or nullptr. Valid until the next
  /// mutation (slots may move when the pool grows).
  const V* find(const K& key) const {
    const std::uint32_t slot = find_slot(key);
    return slot == kNoSlot ? nullptr : &pool_[slot].value;
  }

  /// Pool slot holding `key`, or kNoSlot. O(log n).
  std::uint32_t find_slot(const K& key) const {
    std::uint32_t cur = root_;
    while (cur != kNil) {
      const Node& n = pool_[cur];
      if (cmp_(key, n.key)) {
        cur = n.left;
      } else if (cmp_(n.key, key)) {
        cur = n.right;
      } else {
        return cur;
      }
    }
    return kNoSlot;
  }

  /// Key stored in `slot`. The slot must be live (obtained from
  /// insert_slot/find_slot and not erased since). The reference is
  /// valid until the next mutation — the pool may move when it grows.
  const K& key_at(std::uint32_t slot) const { return pool_[slot].key; }

  /// Value stored in `slot`; same validity rules as key_at().
  const V& value_at(std::uint32_t slot) const { return pool_[slot].value; }

  /// Smallest key with its value, or nullopt if empty.
  std::optional<std::pair<K, V>> front() const {
    if (root_ == kNil) return std::nullopt;
    std::uint32_t cur = root_;
    while (pool_[cur].left != kNil) cur = pool_[cur].left;
    return std::make_pair(pool_[cur].key, pool_[cur].value);
  }

  /// Largest key with its value, or nullopt if empty.
  std::optional<std::pair<K, V>> back() const {
    if (root_ == kNil) return std::nullopt;
    std::uint32_t cur = root_;
    while (pool_[cur].right != kNil) cur = pool_[cur].right;
    return std::make_pair(pool_[cur].key, pool_[cur].value);
  }

  /// Detaches the maximal prefix (ascending key order) on which `pred`
  /// holds; pred must be prefix-monotone (once false, false for all
  /// larger keys). Each detached (key, value) is passed to `sink`.
  /// The sink must not re-enter this treap.
  template <typename Pred, typename Sink>
  void remove_prefix_while(Pred pred, Sink sink) {
    auto [taken, rest] = split_prefix(root_, pred);
    root_ = rest;
    drain_in_order(taken, sink);
  }

  /// Symmetric: detaches the maximal suffix (descending from the largest
  /// key) on which `pred` holds; pred must be suffix-monotone.
  template <typename Pred, typename Sink>
  void remove_suffix_while(Pred pred, Sink sink) {
    auto [rest, taken] = split_suffix(root_, pred);
    root_ = rest;
    drain_in_order(taken, sink);
  }

  /// Within the keys strictly below `bound`, detaches the maximal
  /// suffix on which `pred` holds (pred suffix-monotone over that
  /// sub-range) and passes each detached entry to `sink`. Equivalent to
  /// split_off_lower(bound) + remove_suffix_while + absorb_lower, but
  /// fused: O(log n + removed), no node copies, one pool.
  template <typename Pred, typename Sink>
  void remove_suffix_of_lower_while(const K& bound, Pred pred, Sink sink) {
    auto [lo, hi] = split(root_, bound, nullptr);
    auto [rest, taken] = split_suffix(lo, pred);
    root_ = merge(rest, hi);
    drain_in_order(taken, sink);
  }

  /// Smallest key >= `key`, or nullopt.
  std::optional<K> lower_bound_key(const K& key) const {
    std::uint32_t cur = root_;
    std::uint32_t best = kNil;
    while (cur != kNil) {
      const Node& n = pool_[cur];
      if (cmp_(n.key, key)) {
        cur = n.right;
      } else {
        best = cur;
        cur = n.left;
      }
    }
    return best == kNil ? std::nullopt : std::optional<K>(pool_[best].key);
  }

  /// Splits off all keys strictly below `key` into a separate treap;
  /// this treap keeps the keys >= `key`. With pooled storage the
  /// detached nodes are transplanted into the new treap's own pool, so
  /// this costs O(log n + moved); prefer remove_suffix_of_lower_while
  /// on hot paths that split only to prune and merge back.
  Treap split_off_lower(const K& key) {
    auto [lo, hi] = split(root_, key, nullptr);
    root_ = hi;
    Treap out(next_priority());
    out.root_ = out.clone_subtree(*this, lo);
    free_subtree(lo);
    return out;
  }

  /// Merges `lower` back; every key in `lower` must be strictly smaller
  /// than every key in this treap. O(log n + |lower|) (transplant).
  void absorb_lower(Treap&& lower) {
    const std::uint32_t moved = clone_subtree(lower, lower.root_);
    lower.clear();
    root_ = merge(moved, root_);
  }

  /// In-order traversal.
  template <typename Fn>
  void for_each(Fn fn) const {
    std::vector<std::uint32_t> stack;
    std::uint32_t cur = root_;
    while (cur != kNil || !stack.empty()) {
      while (cur != kNil) {
        stack.push_back(cur);
        cur = pool_[cur].left;
      }
      cur = stack.back();
      stack.pop_back();
      fn(pool_[cur].key, pool_[cur].value);
      cur = pool_[cur].right;
    }
  }

  void clear() noexcept {
    pool_.clear();
    root_ = kNil;
    free_head_ = kNil;
  }

  /// Verifies BST order, heap order on priorities, size counters, and
  /// pool accounting (live + free slots cover the pool exactly).
  /// Test hook; O(n).
  bool check_invariants() const {
    std::size_t free_count = 0;
    for (std::uint32_t f = free_head_; f != kNil; f = pool_[f].left) {
      if (++free_count > pool_.size()) return false;  // freelist cycle
    }
    struct Frame {
      std::uint32_t node;
      const K* lo;
      const K* hi;
    };
    std::vector<Frame> stack;
    if (root_ != kNil) stack.push_back({root_, nullptr, nullptr});
    std::size_t live = 0;
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      if (++live > pool_.size()) return false;  // structure cycle
      const Node& n = pool_[f.node];
      if (f.lo != nullptr && !cmp_(*f.lo, n.key)) return false;
      if (f.hi != nullptr && !cmp_(n.key, *f.hi)) return false;
      std::uint32_t expected = 1;
      if (n.left != kNil) {
        if (pool_[n.left].priority > n.priority) return false;
        expected += pool_[n.left].size;
        stack.push_back({n.left, f.lo, &n.key});
      }
      if (n.right != kNil) {
        if (pool_[n.right].priority > n.priority) return false;
        expected += pool_[n.right].size;
        stack.push_back({n.right, &n.key, f.hi});
      }
      if (n.size != expected) return false;
    }
    return live + free_count == pool_.size();
  }

  /// Expected depth diagnostics for the space benches: max node depth.
  std::size_t max_depth() const {
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    if (root_ != kNil) stack.emplace_back(root_, 1);
    std::size_t deepest = 0;
    while (!stack.empty()) {
      const auto [node, depth] = stack.back();
      stack.pop_back();
      deepest = std::max(deepest, depth);
      const Node& n = pool_[node];
      if (n.left != kNil) stack.emplace_back(n.left, depth + 1);
      if (n.right != kNil) stack.emplace_back(n.right, depth + 1);
    }
    return deepest;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Heap priority for the next insert: a per-pool counter pushed
  /// through the splitmix64 finalizer. One add + one mix64 instead of a
  /// full xoshiro step, and just as uniform — mix64 is a bijection, so
  /// salt ^ 0, salt ^ 1, ... never collide until the counter wraps.
  std::uint64_t next_priority() noexcept {
    return util::mix64(prio_salt_ ^ prio_counter_++);
  }

  struct Node {
    K key;
    V value;
    std::uint64_t priority;
    std::uint32_t size;
    std::uint32_t left;   // doubles as the freelist link when released
    std::uint32_t right;
  };

  std::uint32_t size_of(std::uint32_t n) const noexcept {
    return n == kNil ? 0 : pool_[n].size;
  }

  void update(std::uint32_t n) noexcept {
    Node& nd = pool_[n];
    nd.size = 1 + size_of(nd.left) + size_of(nd.right);
  }

  /// Takes a slot from the freelist or grows the pool. May invalidate
  /// references into the pool (indices stay valid).
  std::uint32_t acquire(const K& key, const V& value, std::uint64_t prio) {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      Node& n = pool_[idx];
      free_head_ = n.left;
      n.key = key;
      n.value = value;
      n.priority = prio;
      n.size = 1;
      n.left = kNil;
      n.right = kNil;
      return idx;
    }
    assert(pool_.size() < kNil);
    pool_.push_back(Node{key, value, prio, 1, kNil, kNil});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release(std::uint32_t idx) noexcept {
    pool_[idx].left = free_head_;
    free_head_ = idx;
  }

  /// Splits into (< key, >= key). `key` itself goes right if present;
  /// if `found` is non-null it is set when the key is encountered.
  /// Top-down two-way descent; sizes fixed bottom-up along the path.
  std::pair<std::uint32_t, std::uint32_t> split(std::uint32_t node,
                                                const K& key, bool* found) {
    std::uint32_t lo = kNil;
    std::uint32_t hi = kNil;
    std::uint32_t* lo_slot = &lo;
    std::uint32_t* hi_slot = &hi;
    scratch_.clear();
    while (node != kNil) {
      Node& n = pool_[node];
      scratch_.push_back(node);
      if (cmp_(n.key, key)) {
        *lo_slot = node;
        lo_slot = &n.right;
        node = n.right;
      } else {
        if (found != nullptr && !cmp_(key, n.key)) *found = true;
        *hi_slot = node;
        hi_slot = &n.left;
        node = n.left;
      }
    }
    *lo_slot = kNil;
    *hi_slot = kNil;
    for (std::size_t i = scratch_.size(); i-- > 0;) update(scratch_[i]);
    return {lo, hi};
  }

  /// Splits into (prefix where pred holds, rest); pred prefix-monotone.
  template <typename Pred>
  std::pair<std::uint32_t, std::uint32_t> split_prefix(std::uint32_t node,
                                                       Pred pred) {
    std::uint32_t taken = kNil;
    std::uint32_t rest = kNil;
    std::uint32_t* t_slot = &taken;
    std::uint32_t* r_slot = &rest;
    scratch_.clear();
    while (node != kNil) {
      Node& n = pool_[node];
      scratch_.push_back(node);
      if (pred(n.key, n.value)) {
        // Whole left subtree satisfies pred (keys smaller than n.key).
        *t_slot = node;
        t_slot = &n.right;
        node = n.right;
      } else {
        *r_slot = node;
        r_slot = &n.left;
        node = n.left;
      }
    }
    *t_slot = kNil;
    *r_slot = kNil;
    for (std::size_t i = scratch_.size(); i-- > 0;) update(scratch_[i]);
    return {taken, rest};
  }

  /// Splits into (rest, suffix where pred holds); pred suffix-monotone.
  template <typename Pred>
  std::pair<std::uint32_t, std::uint32_t> split_suffix(std::uint32_t node,
                                                       Pred pred) {
    std::uint32_t rest = kNil;
    std::uint32_t taken = kNil;
    std::uint32_t* r_slot = &rest;
    std::uint32_t* t_slot = &taken;
    scratch_.clear();
    while (node != kNil) {
      Node& n = pool_[node];
      scratch_.push_back(node);
      if (pred(n.key, n.value)) {
        // Whole right subtree satisfies pred (keys larger than n.key).
        *t_slot = node;
        t_slot = &n.left;
        node = n.left;
      } else {
        *r_slot = node;
        r_slot = &n.right;
        node = n.right;
      }
    }
    *r_slot = kNil;
    *t_slot = kNil;
    for (std::size_t i = scratch_.size(); i-- > 0;) update(scratch_[i]);
    return {rest, taken};
  }

  /// Top-down iterative merge; the winner's subtree size grows by the
  /// whole losing tree, so sizes update on the way down.
  std::uint32_t merge(std::uint32_t a, std::uint32_t b) {
    std::uint32_t root = kNil;
    std::uint32_t* slot = &root;
    while (true) {
      if (a == kNil) {
        *slot = b;
        break;
      }
      if (b == kNil) {
        *slot = a;
        break;
      }
      if (pool_[a].priority >= pool_[b].priority) {
        Node& n = pool_[a];
        n.size += size_of(b);
        *slot = a;
        slot = &n.right;
        a = n.right;
      } else {
        Node& n = pool_[b];
        n.size += size_of(a);
        *slot = b;
        slot = &n.left;
        b = n.left;
      }
    }
    return root;
  }

  /// In-order visit + release of a detached subtree.
  template <typename Sink>
  void drain_in_order(std::uint32_t node, Sink& sink) {
    scratch_.clear();
    std::uint32_t cur = node;
    while (cur != kNil || !scratch_.empty()) {
      while (cur != kNil) {
        scratch_.push_back(cur);
        cur = pool_[cur].left;
      }
      cur = scratch_.back();
      scratch_.pop_back();
      Node& n = pool_[cur];
      sink(n.key, n.value);
      const std::uint32_t next = n.right;
      release(cur);
      cur = next;
    }
  }

  /// Releases every slot of a detached subtree without visiting values.
  void free_subtree(std::uint32_t node) {
    scratch_.clear();
    if (node != kNil) scratch_.push_back(node);
    while (!scratch_.empty()) {
      const std::uint32_t cur = scratch_.back();
      scratch_.pop_back();
      const Node& n = pool_[cur];
      if (n.left != kNil) scratch_.push_back(n.left);
      if (n.right != kNil) scratch_.push_back(n.right);
      release(cur);
    }
  }

  /// Copies the structure rooted at `src_root` in `from`'s pool into
  /// this pool (priorities and sizes preserved). Returns the new root.
  std::uint32_t clone_subtree(const Treap& from, std::uint32_t src_root) {
    if (src_root == kNil) return kNil;
    const Node& sr = from.pool_[src_root];
    const std::uint32_t dst_root = acquire(sr.key, sr.value, sr.priority);
    pool_[dst_root].size = sr.size;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // src, dst
    stack.emplace_back(src_root, dst_root);
    while (!stack.empty()) {
      const auto [s, d] = stack.back();
      stack.pop_back();
      for (const bool left_side : {true, false}) {
        const std::uint32_t child = left_side ? from.pool_[s].left
                                              : from.pool_[s].right;
        if (child == kNil) continue;
        const Node& cn = from.pool_[child];
        const std::uint32_t c = acquire(cn.key, cn.value, cn.priority);
        pool_[c].size = cn.size;
        if (left_side) {
          pool_[d].left = c;
        } else {
          pool_[d].right = c;
        }
        stack.emplace_back(child, c);
      }
    }
    return dst_root;
  }

  std::vector<Node> pool_;
  std::uint32_t root_ = kNil;
  std::uint32_t free_head_ = kNil;
  /// Reusable stacks; each grows to max depth once, then no further
  /// allocation. `path_` holds insert/erase ancestor chains (size
  /// fixups); `scratch_` is private to split/drain-style helpers. The
  /// two are live at the same time inside insert, never deeper.
  std::vector<std::uint32_t> path_;
  std::vector<std::uint32_t> scratch_;
  std::uint64_t prio_salt_;
  std::uint64_t prio_counter_ = 0;
  Compare cmp_{};
};

}  // namespace dds::treap
