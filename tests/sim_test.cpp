// Tests for the simulation substrate: bus accounting, delivery order,
// runner slot semantics, metrics series.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/bus.h"
#include "sim/metrics.h"
#include "sim/node.h"
#include "sim/runner.h"
#include "sim/sources.h"

namespace dds::sim {
namespace {

/// Test node that logs deliveries and can auto-reply.
class Recorder final : public Node {
 public:
  explicit Recorder(NodeId id, bool reply = false) : id_(id), reply_(reply) {}

  void on_message(const Message& msg, net::Transport& bus) override {
    received.push_back(msg);
    if (reply_ && msg.from != id_) {
      Message r;
      r.from = id_;
      r.to = msg.from;
      r.type = MsgType::kThresholdReply;
      r.b = msg.b + 1;
      bus.send(r);
    }
  }

  std::vector<Message> received;

 private:
  NodeId id_;
  bool reply_;
};

class SinkSite final : public StreamNode {
 public:
  SinkSite(NodeId id, NodeId coord, bool send_on_element)
      : id_(id), coord_(coord), send_(send_on_element) {}

  void on_element(std::uint64_t element, Slot t, net::Transport& bus) override {
    elements.push_back(element);
    slots.push_back(t);
    if (send_) {
      Message m;
      m.from = id_;
      m.to = coord_;
      m.type = MsgType::kReportElement;
      m.a = element;
      bus.send(m);
    }
  }

  void on_slot_begin(Slot t, net::Transport& /*bus*/) override {
    slot_begins.push_back(t);
  }

  void on_message(const Message& msg, net::Transport& /*bus*/) override {
    received.push_back(msg);
  }

  std::vector<std::uint64_t> elements;
  std::vector<Slot> slots;
  std::vector<Slot> slot_begins;
  std::vector<Message> received;

 private:
  NodeId id_;
  NodeId coord_;
  bool send_;
};

/// Fixed arrival list as a source.
// ---------------------------------------------------------------- bus --

TEST(Bus, CountsDirectionsAndTypes) {
  Bus bus(2);
  Recorder site0(0), site1(1), coord(2, /*reply=*/true);
  bus.attach(0, &site0);
  bus.attach(1, &site1);
  bus.attach(2, &coord);

  Message m;
  m.from = 0;
  m.to = 2;
  m.type = MsgType::kReportElement;
  bus.send(m);
  bus.drain();

  // Report plus auto-reply.
  EXPECT_EQ(bus.counters().total, 2u);
  EXPECT_EQ(bus.counters().site_to_coordinator, 1u);
  EXPECT_EQ(bus.counters().coordinator_to_site, 1u);
  EXPECT_EQ(
      bus.counters().by_type[static_cast<std::size_t>(MsgType::kReportElement)],
      1u);
  EXPECT_EQ(bus.counters().by_type[static_cast<std::size_t>(
                MsgType::kThresholdReply)],
            1u);
  EXPECT_EQ(bus.counters().bytes, 2 * Message::wire_bytes());
  EXPECT_EQ(bus.sent_by(0), 1u);
  EXPECT_EQ(bus.sent_by(2), 1u);
  EXPECT_EQ(bus.received_by(2), 1u);
  EXPECT_EQ(bus.received_by(0), 1u);
  ASSERT_EQ(site0.received.size(), 1u);
  EXPECT_EQ(site0.received[0].b, 1u);
}

TEST(Bus, CounterSnapshotsSubtract) {
  Bus bus(1);
  Recorder site(0), coord(1);
  bus.attach(0, &site);
  bus.attach(1, &coord);
  Message m;
  m.from = 0;
  m.to = 1;
  bus.send(m);
  bus.drain();
  const BusCounters snap = bus.counters();
  bus.send(m);
  bus.send(m);
  bus.drain();
  const BusCounters delta = bus.counters() - snap;
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.site_to_coordinator, 2u);
}

TEST(Bus, RejectsBadEndpointsAndUnattached) {
  Bus bus(1);
  Recorder site(0);
  bus.attach(0, &site);
  Message bad;
  bad.from = 0;
  bad.to = 9;
  EXPECT_THROW(bus.send(bad), std::out_of_range);
  EXPECT_THROW(bus.attach(5, &site), std::out_of_range);
  Message to_coord;
  to_coord.from = 0;
  to_coord.to = 1;  // coordinator not attached
  bus.send(to_coord);
  EXPECT_THROW(bus.drain(), std::logic_error);
}

TEST(Bus, FifoDeliveryIncludingCascades) {
  Bus bus(2);
  Recorder site0(0), site1(1), coord(2, /*reply=*/true);
  bus.attach(0, &site0);
  bus.attach(1, &site1);
  bus.attach(2, &coord);
  Message a;
  a.from = 0;
  a.to = 2;
  a.b = 10;
  Message b;
  b.from = 1;
  b.to = 2;
  b.b = 20;
  bus.send(a);
  bus.send(b);
  bus.drain();
  // Coordinator saw a then b; replies landed after both reports.
  ASSERT_EQ(coord.received.size(), 2u);
  EXPECT_EQ(coord.received[0].b, 10u);
  EXPECT_EQ(coord.received[1].b, 20u);
  ASSERT_EQ(site0.received.size(), 1u);
  EXPECT_EQ(site0.received[0].b, 11u);
  ASSERT_EQ(site1.received.size(), 1u);
  EXPECT_EQ(site1.received[0].b, 21u);
}

TEST(Bus, TapSeesEveryMessage) {
  Bus bus(1);
  Recorder site(0), coord(1, /*reply=*/true);
  bus.attach(0, &site);
  bus.attach(1, &coord);
  std::vector<Message> tapped;
  bus.set_tap([&tapped](const Message& m) { tapped.push_back(m); });
  Message m;
  m.from = 0;
  m.to = 1;
  bus.send(m);
  bus.drain();
  EXPECT_EQ(tapped.size(), 2u);
}

// -------------------------------------------------------------- runner --

TEST(Runner, DeliversArrivalsToSites) {
  Bus bus(2);
  SinkSite s0(0, 2, false), s1(1, 2, false);
  Recorder coord(2);
  bus.attach(0, &s0);
  bus.attach(1, &s1);
  bus.attach(2, &coord);
  Runner runner(bus, {&s0, &s1}, /*invoke_slot_begin=*/false);
  ListSource src({{0, 0, 100}, {0, 1, 200}, {1, 0, 300}});
  EXPECT_EQ(runner.run(src), 3u);
  EXPECT_EQ(s0.elements, (std::vector<std::uint64_t>{100, 300}));
  EXPECT_EQ(s1.elements, (std::vector<std::uint64_t>{200}));
  EXPECT_TRUE(s0.slot_begins.empty());  // slot begin disabled
}

TEST(Runner, SlotBeginInvokedForEverySlotInOrder) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  Runner runner(bus, {&s0}, /*invoke_slot_begin=*/true);
  ListSource src({{0, 0, 1}, {3, 0, 2}});
  runner.run(src);
  // Slots 0,1,2,3 all began, even empty ones.
  EXPECT_EQ(s0.slot_begins, (std::vector<Slot>{0, 1, 2, 3}));
  EXPECT_EQ(runner.current_slot(), 3);
}

TEST(Runner, AdvanceToSlotDrivesEmptySlots) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  Runner runner(bus, {&s0}, /*invoke_slot_begin=*/true);
  runner.advance_to_slot(2);
  EXPECT_EQ(s0.slot_begins, (std::vector<Slot>{0, 1, 2}));
}

TEST(Runner, RejectsOutOfOrderSlots) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  Runner runner(bus, {&s0}, false);
  ListSource src({{5, 0, 1}, {2, 0, 2}});
  EXPECT_THROW(runner.run(src), std::invalid_argument);
}

TEST(Runner, RejectsUnknownSite) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  Runner runner(bus, {&s0}, false);
  ListSource src({{0, 7, 1}});
  EXPECT_THROW(runner.run(src), std::out_of_range);
}

TEST(Runner, SiteCountMustMatchBus) {
  Bus bus(2);
  SinkSite s0(0, 2, false);
  EXPECT_THROW(Runner(bus, {&s0}, false), std::invalid_argument);
}

TEST(Runner, ObserverCadenceAndFinalSnapshot) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  Runner runner(bus, {&s0}, false);
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 10; ++i) {
    arrivals.push_back({i, 0, static_cast<std::uint64_t>(i)});
  }
  ListSource src(arrivals);
  std::vector<Progress> seen;
  runner.set_observer(3, [&seen](const Progress& p) { seen.push_back(p); });
  runner.run(src);
  // Every 3 arrivals: 3,6,9, then the final snapshot at 10.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].elements_processed, 3u);
  EXPECT_EQ(seen[2].elements_processed, 9u);
  EXPECT_TRUE(seen[3].final_snapshot);
  EXPECT_EQ(seen[3].elements_processed, 10u);
}

TEST(Runner, BusNowTracksSlots) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  Runner runner(bus, {&s0}, true);
  ListSource src({{4, 0, 1}});
  runner.run(src);
  EXPECT_EQ(bus.now(), 4);
}

/// Site that records how the engine grouped its arrivals: one entry per
/// on_element_batch call (the default per-element path still runs, so
/// single deliveries land in `singles` as well).
class BatchRecorder final : public StreamNode {
 public:
  void on_element(std::uint64_t element, Slot t,
                  net::Transport& /*bus*/) override {
    singles.push_back(element);
    slots.push_back(t);
  }

  void on_element_batch(std::span<const std::uint64_t> elements, Slot t,
                        net::Transport& bus) override {
    batches.emplace_back(elements.begin(), elements.end());
    StreamNode::on_element_batch(elements, t, bus);
  }

  void on_message(const Message& /*msg*/, net::Transport& /*bus*/) override {}

  std::vector<std::vector<std::uint64_t>> batches;
  std::vector<std::uint64_t> singles;
  std::vector<Slot> slots;
};

TEST(SerialEngine, RunBatchedGroupsRunsOfOneSlotAndSiteUpToMaxBatch) {
  Bus bus(2);
  BatchRecorder s0, s1;
  Recorder coord(2);
  bus.attach(0, &s0);
  bus.attach(1, &s1);
  bus.attach(2, &coord);
  SerialEngine engine(bus, {&s0, &s1}, /*invoke_slot_begin=*/false);
  // A batch ends at a site change, a slot change, or max_batch.
  ListSource src({{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 1, 4}, {0, 0, 5},
                  {1, 0, 6}, {1, 0, 7}, {2, 1, 8}});
  EXPECT_EQ(engine.run_batched(src, /*max_batch=*/2), 8u);
  using Batches = std::vector<std::vector<std::uint64_t>>;
  EXPECT_EQ(s0.batches, (Batches{{1, 2}, {3}, {5}, {6, 7}}));
  EXPECT_EQ(s1.batches, (Batches{{4}, {8}}));
  EXPECT_EQ(s0.singles, (std::vector<std::uint64_t>{1, 2, 3, 5, 6, 7}));
  EXPECT_EQ(s0.slots, (std::vector<Slot>{0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(engine.current_slot(), 2);
}

TEST(SerialEngine, RunBatchedWidthOneIsPlainRun) {
  Bus bus(1);
  BatchRecorder s0;
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  SerialEngine engine(bus, {&s0}, /*invoke_slot_begin=*/false);
  ListSource src({{0, 0, 1}, {0, 0, 2}, {3, 0, 3}});
  EXPECT_EQ(engine.run_batched(src, /*max_batch=*/1), 3u);
  EXPECT_TRUE(s0.batches.empty());  // every element took on_element
  EXPECT_EQ(s0.singles, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(SerialEngine, RunBatchedObservesOncePerCrossedMultiple) {
  Bus bus(1);
  BatchRecorder s0;
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  SerialEngine engine(bus, {&s0}, /*invoke_slot_begin=*/false);
  // Slot sizes 5, 1, 4: batches end at 5, 6, 10 arrivals. Every 3
  // arrivals: the multiples 3 (inside batch 1), 6 (end of batch 2) and
  // 9 (inside batch 3) each trigger one observation at the batch end.
  std::vector<Arrival> arrivals;
  const int sizes[] = {5, 1, 4};
  for (Slot t = 0; t < 3; ++t) {
    for (int i = 0; i < sizes[t]; ++i) {
      arrivals.push_back({t, 0, static_cast<std::uint64_t>(10 * t + i)});
    }
  }
  ListSource src(arrivals);
  std::vector<Progress> seen;
  engine.set_observer(3, [&seen](const Progress& p) { seen.push_back(p); });
  engine.run_batched(src, /*max_batch=*/8);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].elements_processed, 5u);
  EXPECT_EQ(seen[1].elements_processed, 6u);
  EXPECT_EQ(seen[2].elements_processed, 10u);
  EXPECT_FALSE(seen[2].final_snapshot);
  EXPECT_TRUE(seen[3].final_snapshot);
  EXPECT_EQ(seen[3].elements_processed, 10u);
  EXPECT_EQ(seen[3].slot, 2);
}

TEST(SerialEngine, RunBatchedValidatesEveryArrival) {
  Bus bus(1);
  BatchRecorder s0;
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  {
    SerialEngine engine(bus, {&s0}, false);
    ListSource src({{4, 0, 1}, {2, 0, 2}});
    EXPECT_THROW(engine.run_batched(src, 8), std::invalid_argument);
  }
  {
    SerialEngine engine(bus, {&s0}, false);
    ListSource src({{0, 0, 1}, {0, 3, 2}});
    EXPECT_THROW(engine.run_batched(src, 8), std::out_of_range);
  }
}

TEST(SerialEngine, AdvanceWithoutSlotBeginMovesOnlyTheClock) {
  Bus bus(1);
  SinkSite s0(0, 1, false);
  Recorder coord(1);
  bus.attach(0, &s0);
  bus.attach(1, &coord);
  SerialEngine engine(bus, {&s0}, /*invoke_slot_begin=*/false);
  engine.advance_to_slot(5);
  EXPECT_EQ(engine.current_slot(), 5);
  EXPECT_EQ(bus.now(), 5);
  EXPECT_TRUE(s0.slot_begins.empty());
}

TEST(SerialEngine, SlotBeginRepliesLandBeforeTheSlotsArrivals) {
  // The engine drains after each site's on_slot_begin, so a message a
  // site sends at the slot boundary is delivered before that slot's
  // first element.
  class BoundarySender final : public StreamNode {
   public:
    void on_element(std::uint64_t element, Slot /*t*/,
                    net::Transport& /*bus*/) override {
      log.push_back(element);
    }
    void on_slot_begin(Slot t, net::Transport& bus) override {
      Message m;
      m.from = 0;
      m.to = 1;
      m.type = MsgType::kReportElement;
      m.a = 1000 + static_cast<std::uint64_t>(t);
      bus.send(m);
    }
    void on_message(const Message& /*msg*/, net::Transport& /*bus*/) override {}
    std::vector<std::uint64_t> log;
  };
  class LoggingCoordinator final : public Node {
   public:
    explicit LoggingCoordinator(std::vector<std::uint64_t>& log) : log_(log) {}
    void on_message(const Message& msg, net::Transport& /*bus*/) override {
      log_.push_back(msg.a);
    }

   private:
    std::vector<std::uint64_t>& log_;
  };
  Bus bus(1);
  BoundarySender site;
  LoggingCoordinator coord(site.log);
  bus.attach(0, &site);
  bus.attach(1, &coord);
  SerialEngine engine(bus, {&site}, /*invoke_slot_begin=*/true);
  ListSource src({{0, 0, 7}, {2, 0, 8}});
  engine.run(src);
  EXPECT_EQ(site.log,
            (std::vector<std::uint64_t>{1000, 7, 1001, 1002, 8}));
}

// ------------------------------------------------------------- metrics --

TEST(Series, AccumulatesPerX) {
  Series s;
  s.add(1.0, 10.0);
  s.add(1.0, 20.0);
  s.add(2.0, 5.0);
  EXPECT_EQ(s.xs(), (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.mean_at(1.0), 15.0);
  EXPECT_DOUBLE_EQ(s.mean_at(2.0), 5.0);
  EXPECT_EQ(s.stat_at(1.0).count(), 2u);
  EXPECT_THROW(s.stat_at(9.0), std::out_of_range);
}

TEST(SeriesBundle, TableHasRowPerXAndColumnPerSeries) {
  SeriesBundle bundle("elements");
  bundle.series("proposed").add(100, 5);
  bundle.series("proposed").add(200, 8);
  bundle.series("broadcast").add(100, 50);
  const auto table = bundle.to_table(/*with_ci=*/false);
  EXPECT_EQ(table.columns(), 3u);  // x + 2 series
  EXPECT_EQ(table.rows(), 2u);     // x=100, x=200
  const std::string md = table.to_markdown();
  EXPECT_NE(md.find("proposed"), std::string::npos);
  EXPECT_NE(md.find("broadcast"), std::string::npos);
  EXPECT_NE(md.find("-"), std::string::npos);  // missing cell marker
}

TEST(SeriesBundle, CiColumnsWhenRequested) {
  SeriesBundle bundle("x");
  bundle.series("y").add(1, 2);
  bundle.series("y").add(1, 4);
  const auto table = bundle.to_table(/*with_ci=*/true);
  EXPECT_EQ(table.columns(), 3u);  // x, y, y ci95
}

}  // namespace
}  // namespace dds::sim
