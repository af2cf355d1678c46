// dds_node — one node of a real-socket deployment.
//
// Runs the infinite-window protocol (Algorithms 1 & 2) with each node in
// its own OS process, talking over real UDP or TCP sockets on
// 127.0.0.1. One process per node:
//
//   dds_node --coordinator --transport udp --num-sites 2 --seed 7
//            --sample-size 8 --port-file /tmp/coord.port --out /tmp/sample
//   dds_node --site 0 --transport udp --num-sites 2 --seed 7
//            --sample-size 8 --elements 500 --port-file /tmp/coord.port
//   dds_node --site 1 ... (same flags, different --site)
//
// The coordinator binds first (ephemeral port unless --port) and
// publishes its actual port via --port-file (written atomically); sites
// poll for that file, connect, stream their elements through the real
// protocol, and the run ends with the kFin exchange:
//
//   site:  feed elements -> finish() (all data acked) -> send kFin
//          -> wait for the coordinator's kFin -> linger briefly -> exit
//   coord: pump until every site's kFin arrived (per-link FIFO order
//          means all data precedes it) -> finish() -> kFin to each site
//          -> finish() (fins acked) -> write the sample -> exit
//
// Each site generates its own workload deterministically from the
// shared seed (util::derive_seed(seed, 0xF00D + site)), so a test can
// replay the identical element streams through an in-process deployment
// and compare samples — the spawn smoke test in tests/socket_test.cpp
// does exactly that.
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/infinite_coordinator.h"
#include "core/infinite_site.h"
#include "hash/hash_function.h"
#include "net/socket_transport.h"
#include "net/tcp_transport.h"
#include "net/udp_transport.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace dds;

struct Args {
  bool coordinator = false;
  std::uint32_t site = 0;
  bool has_site = false;
  std::string transport = "udp";
  std::uint32_t num_sites = 2;
  std::uint64_t seed = 1;
  std::size_t sample_size = 8;
  std::uint64_t elements = 500;   ///< per-site workload length
  std::uint64_t domain = 1000;    ///< element values in [1, domain]
  std::uint16_t port = 0;         ///< coordinator listen port (0=ephemeral)
  std::string port_file;          ///< coordinator publishes / sites read
  std::string out;                ///< coordinator writes the sample here
  double timeout = 30.0;          ///< overall give-up, seconds
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--coordinator | --site I) [options]\n"
      << "  --transport udp|tcp   wire (default udp)\n"
      << "  --num-sites K         total sites (default 2)\n"
      << "  --seed S              shared seed (default 1)\n"
      << "  --sample-size s       bottom-s size (default 8)\n"
      << "  --elements N          per-site element count (default 500)\n"
      << "  --domain D            element values in [1, D] (default 1000)\n"
      << "  --port P              coordinator port (default ephemeral)\n"
      << "  --port-file PATH      coordinator writes its port here;\n"
      << "                        sites poll it to find the coordinator\n"
      << "  --out PATH            coordinator writes sorted sample here\n"
      << "  --timeout SECONDS     give up after this long (default 30)\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // Whole-string, range-checked: "-1", "2x" and out-of-range values are
  // usage errors, never silently truncated.
  constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  auto next_uint = [&](int& i, std::uint64_t min,
                       std::uint64_t max = ~std::uint64_t{0}) {
    const auto value = util::parse_uint(next_value(i), max);
    if (!value || *value < min) usage(argv[0]);
    return *value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--coordinator") {
      args.coordinator = true;
    } else if (flag == "--site") {
      args.has_site = true;
      args.site = static_cast<std::uint32_t>(next_uint(i, 0, kU32));
    } else if (flag == "--transport") {
      args.transport = next_value(i);
    } else if (flag == "--num-sites") {
      args.num_sites = static_cast<std::uint32_t>(next_uint(i, 1, kU32));
    } else if (flag == "--seed") {
      args.seed = next_uint(i, 0);
    } else if (flag == "--sample-size") {
      args.sample_size = static_cast<std::size_t>(next_uint(i, 1, kU32));
    } else if (flag == "--elements") {
      args.elements = next_uint(i, 0);
    } else if (flag == "--domain") {
      args.domain = next_uint(i, 1);
    } else if (flag == "--port") {
      args.port = static_cast<std::uint16_t>(
          next_uint(i, 0, std::numeric_limits<std::uint16_t>::max()));
    } else if (flag == "--port-file") {
      args.port_file = next_value(i);
    } else if (flag == "--out") {
      args.out = next_value(i);
    } else if (flag == "--timeout") {
      const auto value = util::parse_double(next_value(i));
      if (!value || *value <= 0.0) usage(argv[0]);
      args.timeout = *value;
    } else {
      usage(argv[0]);
    }
  }
  if (args.coordinator == args.has_site) usage(argv[0]);  // exactly one role
  if (!args.coordinator && args.site >= args.num_sites) usage(argv[0]);
  if (args.transport != "udp" && args.transport != "tcp") usage(argv[0]);
  return args;
}

void write_atomically(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << contents;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::cerr << "dds_node: cannot write " << path << "\n";
    std::exit(1);
  }
}

std::uint16_t poll_port_file(const std::string& path, double timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(timeout * 1000));
  for (;;) {
    std::ifstream in(path);
    unsigned port = 0;
    if (in && (in >> port) && port != 0) {
      return static_cast<std::uint16_t>(port);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      std::cerr << "dds_node: timed out waiting for " << path << "\n";
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::unique_ptr<net::SocketTransport> make_node_transport(
    const Args& args, const net::SocketTopology& topology) {
  net::NetworkConfig config;
  config.seed = args.seed;
  if (args.transport == "tcp") {
    return std::make_unique<net::TcpTransport>(args.num_sites, config,
                                               /*num_coordinators=*/1,
                                               topology);
  }
  return std::make_unique<net::UdpTransport>(args.num_sites, config,
                                             /*num_coordinators=*/1,
                                             topology);
}

std::uint16_t bound_port(const net::SocketTransport& transport,
                         const Args& args, sim::NodeId coordinator_id) {
  if (args.transport == "tcp") {
    return static_cast<const net::TcpTransport&>(transport).listen_port_of(0);
  }
  return static_cast<const net::UdpTransport&>(transport).port_of(
      coordinator_id);
}

/// Pumps until `done()` or the deadline; exits loudly on timeout.
template <typename Done>
void pump_until(net::SocketTransport& transport, double timeout, Done done,
                const char* what) {
  const double deadline = transport.now_seconds() + timeout;
  while (!done()) {
    transport.pump();
    if (transport.now_seconds() > deadline) {
      std::cerr << "dds_node: timed out waiting for " << what << "\n";
      std::exit(1);
    }
  }
}

int run_coordinator(const Args& args) {
  const sim::NodeId coordinator_id = args.num_sites;
  net::SocketTopology topology;
  topology.local_nodes = {coordinator_id};
  topology.listen_port = args.port;
  auto transport = make_node_transport(args, topology);

  core::InfiniteWindowCoordinator coordinator(coordinator_id,
                                              args.sample_size);
  transport->attach(coordinator_id, &coordinator);

  if (!args.port_file.empty()) {
    write_atomically(args.port_file,
                     std::to_string(bound_port(*transport, args,
                                               coordinator_id)) +
                         "\n");
  }

  // All sites done: per-link FIFO order means every report preceded its
  // sender's kFin.
  pump_until(*transport, args.timeout,
             [&] { return transport->fins().size() >= args.num_sites; },
             "site fins");
  transport->finish();  // outstanding replies acked

  for (std::uint32_t i = 0; i < args.num_sites; ++i) {
    transport->send_fin(coordinator_id, i, 0);
  }
  transport->finish();  // the fins themselves acked / written

  const auto sample = coordinator.sample();
  std::string lines;
  for (const stream::Element element : sample.elements()) {
    lines += std::to_string(element);
    lines += '\n';
  }
  if (!args.out.empty()) {
    write_atomically(args.out, lines);
  } else {
    std::cout << lines;
  }
  return 0;
}

int run_site(const Args& args) {
  const sim::NodeId coordinator_id = args.num_sites;
  std::uint16_t coordinator_port = args.port;
  if (!args.port_file.empty()) {
    coordinator_port = poll_port_file(args.port_file, args.timeout);
  }
  if (coordinator_port == 0) {
    std::cerr << "dds_node: need --port or --port-file to find the "
                 "coordinator\n";
    return 2;
  }

  net::SocketTopology topology;
  topology.local_nodes = {args.site};
  topology.coordinator_addrs = {{"127.0.0.1", coordinator_port}};
  auto transport = make_node_transport(args, topology);

  core::InfiniteWindowSite site(
      args.site, coordinator_id,
      hash::HashFunction(hash::HashKind::kMurmur2,
                         util::derive_seed(args.seed, 0xA5)));
  transport->attach(args.site, &site);

  // The deterministic per-site workload the smoke test replays.
  util::Xoshiro256StarStar rng(util::derive_seed(args.seed, 0xF00D + args.site));
  for (std::uint64_t n = 0; n < args.elements; ++n) {
    site.on_element(1 + rng.next_below(args.domain), /*t=*/0, *transport);
    transport->pump();  // let replies interleave with the stream
  }

  transport->finish();  // every report delivered and acked
  transport->send_fin(args.site, coordinator_id,
                      transport->logical_counters().site_to_coordinator);
  // Wait for the coordinator's end-of-run fin, then linger briefly so
  // our ack of it (and any retransmit of ours it still needs) lands.
  pump_until(*transport, args.timeout,
             [&] { return !transport->fins().empty(); }, "coordinator fin");
  const double linger_until = transport->now_seconds() + 0.2;
  while (transport->now_seconds() < linger_until) transport->pump();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.coordinator ? run_coordinator(args) : run_site(args);
  } catch (const std::exception& e) {
    std::cerr << "dds_node: " << e.what() << "\n";
    return 1;
  }
}
