// Ablation A16 — the paper's logical cost model vs real socket framing.
//
// The paper counts messages and prices them at the logical record size;
// this repo's wire format (docs/wire.md) adds a 12-byte header and an
// 8-byte checksum per frame, and batching amortizes that envelope over
// 29-byte packed records. This ablation runs the infinite-window
// protocol over real UDP datagrams and real TCP streams on 127.0.0.1
// and measures:
//
//  * frame bytes actually shipped vs the logical model
//    (`wire::message_frame_bytes()` per unbatched send; batching drops
//    the per-message envelope, so overhead falls toward the packed-
//    record floor as the flush interval grows)
//  * the UDP reliability tax: data datagrams, ack-only datagrams,
//    retransmits (should be ~0 on loopback — the ack-bit redundancy is
//    doing the silencing). Acks ride on the reverse data, so ack-only
//    datagrams come only from the transport's full sweeps (a full send
//    window, finish()): a handful per run, not one per frame
//  * sample agreement with the zero-delay Bus reference: every row must
//    report agree = 1 (the differential harness in tests/socket_test.cpp
//    pins this bit-exactly; the bench re-checks it per data point).
#include "bench_common.h"

#include "net/udp_transport.h"
#include "net/wire.h"

namespace {

using namespace dds;

struct RunResult {
  double logical_msgs = 0;   ///< paper-model sends
  double logical_bytes = 0;  ///< paper-model bytes (37 B per message)
  double wire_msgs = 0;      ///< frames actually shipped
  double wire_bytes = 0;     ///< framed bytes actually shipped
  double retransmits = 0;    ///< UDP only: conn-layer retransmits
  double ack_only = 0;       ///< UDP only: ack-only datagrams
  std::vector<stream::Element> sample;
};

RunResult run_once(net::TransportKind kind, sim::Slot batch_interval,
                   std::uint32_t sites, std::size_t s, std::uint64_t n,
                   std::uint64_t domain, const bench::CommonArgs& args,
                   std::uint64_t seed) {
  core::SystemConfig config{sites, s, args.hash_kind, seed};
  config.network.kind = kind;
  config.network.batch_interval = batch_interval;
  config.network.seed = seed + 7;
  core::InfiniteSystem system(config, /*eager_threshold=*/false,
                              args.suppress_duplicates);
  stream::ZipfStream input(n, domain, 1.05, seed + 1);
  auto source = stream::make_partitioner(stream::Distribution::kRandom, input,
                                         sites, seed + 2, 1.0);
  system.run(*source);

  RunResult out;
  net::Transport& transport = system.bus();
  out.wire_msgs = static_cast<double>(transport.counters().total);
  out.wire_bytes = static_cast<double>(transport.counters().bytes);
  out.logical_msgs = out.wire_msgs;
  out.logical_bytes = out.wire_bytes;
  if (const auto* sock =
          dynamic_cast<const net::SocketTransport*>(&transport)) {
    out.logical_msgs = static_cast<double>(sock->logical_counters().total);
    out.logical_bytes = static_cast<double>(sock->logical_counters().bytes);
  }
  if (const auto* udp = dynamic_cast<const net::UdpTransport*>(&transport)) {
    const net::ConnStats totals = udp->conn_totals();
    out.retransmits = static_cast<double>(totals.retransmits);
    out.ack_only = static_cast<double>(totals.ack_only_sent);
  }
  out.sample = system.coordinator().sample().elements();
  std::sort(out.sample.begin(), out.sample.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  bench::register_common(cli);
  cli.flag("sites", "number of sites k", "4");
  cli.flag("sample-size", "sample size s", "16");
  cli.flag("n", "stream length", "20000");
  cli.flag("domain", "element domain size", "2000");
  cli.flag("batches", "comma-separated batch flush intervals (slots)",
           "0,1,2,5,10");
  if (!cli.parse(argc, argv)) return 1;
  const auto args = bench::read_common(cli);
  const auto k = static_cast<std::uint32_t>(cli.get_uint("sites"));
  const auto s = static_cast<std::size_t>(cli.get_uint("sample-size"));
  const auto n = cli.get_uint("n");
  const auto domain = cli.get_uint("domain");
  const auto batches = cli.get_uint_list("batches");
  bench::banner("Ablation A16: logical cost model vs real socket framing",
                args);

  bool all_agree = true;

  // -------------------------- framing overhead vs batch interval --
  {
    util::Table table({"flush interval", "logical msgs", "model bytes",
                       "udp frames", "udp bytes", "tcp bytes", "overhead %",
                       "agree"});
    for (std::size_t pi = 0; pi < batches.size(); ++pi) {
      const auto batch = static_cast<sim::Slot>(batches[pi]);
      util::RunningStat logical, model_bytes, udp_frames, udp_bytes,
          tcp_bytes, overhead;
      bool agree = true;
      for (std::uint64_t run = 0; run < args.runs; ++run) {
        const auto seed = bench::run_seed(args, pi, run);
        const auto bus = run_once(net::TransportKind::kBus, batch, k, s, n,
                                  domain, args, seed);
        const auto udp = run_once(net::TransportKind::kUdp, batch, k, s, n,
                                  domain, args, seed);
        const auto tcp = run_once(net::TransportKind::kTcp, batch, k, s, n,
                                  domain, args, seed);
        agree = agree && udp.sample == bus.sample && tcp.sample == bus.sample;
        logical.add(udp.logical_msgs);
        model_bytes.add(udp.logical_bytes);
        udp_frames.add(udp.wire_msgs);
        udp_bytes.add(udp.wire_bytes);
        tcp_bytes.add(tcp.wire_bytes);
        overhead.add(100.0 * (udp.wire_bytes / udp.logical_bytes - 1.0));
      }
      all_agree = all_agree && agree;
      table.add_row({util::fmt(batches[pi]), util::fmt(logical.mean(), 6),
                     util::fmt(model_bytes.mean(), 7),
                     util::fmt(udp_frames.mean(), 6),
                     util::fmt(udp_bytes.mean(), 7),
                     util::fmt(tcp_bytes.mean(), 7),
                     util::fmt(overhead.mean(), 3),
                     agree ? "yes" : "NO"});
    }
    bench::emit(table,
                "A16a: framed bytes vs the paper's logical model, by batch "
                "flush interval (envelope " +
                    std::to_string(net::wire::message_frame_bytes() -
                                   sim::Message::wire_bytes()) +
                    " B/frame, packed record 29 B)",
                "abl16_socket_framing.csv", args);
  }

  // ------------------------------------ UDP reliability economy --
  {
    util::Table table(
        {"flush interval", "data frames", "retransmits", "ack-only"});
    for (std::size_t pi = 0; pi < batches.size(); ++pi) {
      const auto batch = static_cast<sim::Slot>(batches[pi]);
      util::RunningStat frames, rtx, acks;
      for (std::uint64_t run = 0; run < args.runs; ++run) {
        const auto seed = bench::run_seed(args, 100 + pi, run);
        const auto udp = run_once(net::TransportKind::kUdp, batch, k, s, n,
                                  domain, args, seed);
        frames.add(udp.wire_msgs);
        rtx.add(udp.retransmits);
        acks.add(udp.ack_only);
      }
      table.add_row({util::fmt(batches[pi]), util::fmt(frames.mean(), 6),
                     util::fmt(rtx.mean(), 3), util::fmt(acks.mean(), 6)});
    }
    bench::emit(table,
                "A16b: UDP datagram economy on 127.0.0.1 (retransmits ~0: "
                "the redundant ack-bits absorb loopback reordering; acks "
                "ride on replies, so ack-only datagrams come only from "
                "full sweeps at a full window or finish())",
                "abl16_socket_udp.csv", args);
  }

  if (!all_agree) {
    std::cerr << "abl16_socket: FAIL — a socket sample diverged from the "
                 "Bus reference\n";
    return 1;
  }
  return 0;
}
