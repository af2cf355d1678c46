#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace dds::net {

namespace {

constexpr std::size_t kMaxDatagram = 65536;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("UdpTransport: " + what + ": " +
                           std::strerror(errno));
}

std::uint64_t addr_key(std::uint32_t ip, std::uint16_t port) noexcept {
  return (static_cast<std::uint64_t>(ip) << 16) | port;
}

sockaddr_in make_addr(std::uint32_t ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ip;
  addr.sin_port = htons(port);
  return addr;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl O_NONBLOCK");
  }
}

std::uint32_t resolve_host(const std::string& host) {
  const in_addr_t ip = ::inet_addr(host.empty() ? "127.0.0.1" : host.c_str());
  if (ip == INADDR_NONE) {
    throw std::runtime_error("UdpTransport: unresolvable host " + host);
  }
  return ip;
}

}  // namespace

UdpTransport::UdpTransport(std::uint32_t num_sites,
                           const NetworkConfig& config,
                           std::uint32_t num_coordinators,
                           SocketTopology topology, ConnConfig conn_config)
    : SocketTransport(num_sites, config, num_coordinators,
                      std::move(topology)),
      conn_config_(conn_config) {
  const std::uint32_t num_nodes = num_sites + num_coordinators;
  for (sim::NodeId id = 0; id < num_nodes; ++id) {
    if (is_local(id)) open_endpoint(id);
  }

  // Per-process cookie: incarnations must differ even at equal seeds,
  // so fold in the monotonic clock the transport already keeps.
  const std::uint64_t cookie_base =
      util::mix64(config.seed ^
                  static_cast<std::uint64_t>(now_seconds() * 1e9) ^
                  static_cast<std::uint64_t>(::getpid()));

  const std::uint32_t loopback = resolve_host("127.0.0.1");
  for (auto& [id, ep] : eps_) {
    const bool coord = is_coordinator(id);
    const std::uint32_t first_peer = coord ? 0 : num_sites;
    const std::uint32_t last_peer = coord ? num_sites : num_nodes;
    for (sim::NodeId peer_id = first_peer; peer_id < last_peer; ++peer_id) {
      Peer peer;
      if (is_local(peer_id)) {
        peer.ip = loopback;
        peer.port = eps_.at(peer_id).port;
        peer.addr_known = true;
      } else if (!coord) {
        // Remote coordinator: address comes from the topology. Remote
        // sites announce themselves via Hello.
        const std::uint32_t shard = peer_id - num_sites;
        if (shard >= this->topology().coordinator_addrs.size()) {
          throw std::runtime_error(
              "UdpTransport: no address for coordinator shard " +
              std::to_string(shard));
        }
        const auto& [host, port] = this->topology().coordinator_addrs[shard];
        peer.ip = resolve_host(host);
        peer.port = port;
        peer.addr_known = true;
      }
      wire::Hello hello{id, num_sites, num_coordinators,
                        util::derive_seed(cookie_base, id)};
      // Sites initiate; coordinators respond.
      peer.conn = std::make_unique<Connection>(!coord, hello, conn_config_);
      if (peer.addr_known) {
        ep.by_addr[addr_key(peer.ip, peer.port)] = peer_id;
      }
      ep.peers.emplace(peer_id, std::move(peer));
    }
  }

  run_handshake();
}

UdpTransport::~UdpTransport() {
  for (auto& [id, ep] : eps_) {
    if (ep.fd >= 0) ::close(ep.fd);
  }
}

void UdpTransport::open_endpoint(sim::NodeId id) {
  Endpoint ep;
  ep.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (ep.fd < 0) throw_errno("socket");
  // Generous kernel buffers: a loopback drop is survivable (the conn
  // layer retransmits) but needlessly slows the drain.
  const int buf = 1 << 20;
  ::setsockopt(ep.fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(ep.fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  std::uint16_t want_port = 0;
  if (!all_local() && is_coordinator(id) && topology().listen_port != 0) {
    want_port = static_cast<std::uint16_t>(topology().listen_port +
                                           (id - num_sites()));
  }
  sockaddr_in addr = make_addr(resolve_host("127.0.0.1"), want_port);
  if (::bind(ep.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(ep.fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  ep.port = ntohs(addr.sin_port);
  set_nonblocking(ep.fd);
  eps_.emplace(id, std::move(ep));
}

std::uint16_t UdpTransport::port_of(sim::NodeId id) const {
  return eps_.at(id).port;
}

ConnStats UdpTransport::conn_totals() const {
  ConnStats total;
  for (const auto& [id, ep] : eps_) {
    for (const auto& [peer_id, peer] : ep.peers) {
      const ConnStats& s = peer.conn->stats();
      total.data_sent += s.data_sent;
      total.retransmits += s.retransmits;
      total.nack_retransmits += s.nack_retransmits;
      total.ack_only_sent += s.ack_only_sent;
      total.handshake_sent += s.handshake_sent;
      total.delivered += s.delivered;
      total.duplicates += s.duplicates;
      total.held_out_of_order += s.held_out_of_order;
      total.rejected += s.rejected;
    }
  }
  return total;
}

void UdpTransport::bind_observability(obs::MetricsRegistry* registry,
                                      obs::Tracer* tracer) {
  SocketTransport::bind_observability(registry, tracer);
  if (registry == nullptr) return;
  // One registration per connection under a shared name: the registry
  // sums duplicates at snapshot, which is exactly conn_totals().
  for (const auto& [id, ep] : eps_) {
    for (const auto& [peer_id, peer] : ep.peers) {
      const ConnStats& s = peer.conn->stats();
      registry->counter("conn.data_sent", &s.data_sent);
      registry->counter("conn.retransmits", &s.retransmits);
      registry->counter("conn.nack_retransmits", &s.nack_retransmits);
      registry->counter("conn.ack_only_sent", &s.ack_only_sent);
      registry->counter("conn.duplicates", &s.duplicates);
      registry->counter("conn.held_out_of_order", &s.held_out_of_order);
    }
  }
}

void UdpTransport::send_packet(Endpoint& ep, const Peer& peer,
                               const OutPacket& pkt) {
  const sockaddr_in addr = make_addr(peer.ip, peer.port);
  const ssize_t n =
      ::sendto(ep.fd, pkt.bytes.data(), pkt.bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
      // Treat as a wire drop; the reliability layer retransmits.
      return;
    }
    throw_errno("sendto");
  }
  stats().packets_sent += 1;
  stats().kernel_bytes_sent += static_cast<std::uint64_t>(n);
  if (pkt.retransmit) stats().retransmit_packets += 1;
  if (pkt.handshake) stats().handshake_packets += 1;
  if (!pkt.data && !pkt.handshake) stats().ack_only_packets += 1;
}

void UdpTransport::flush_conn(Endpoint& ep, Peer& peer, double now) {
  if (!peer.addr_known) return;  // nowhere to send yet
  std::vector<OutPacket> out;
  peer.conn->poll(now, out);
  for (const OutPacket& pkt : out) send_packet(ep, peer, pkt);
}

void UdpTransport::ship_frame(sim::NodeId from, sim::NodeId to,
                              wire::Buffer frame) {
  // Only the addressed connection is polled: its data packet carries
  // the ack it owes, and no other connection has news from this send.
  Endpoint& ep = eps_.at(from);
  Peer& peer = ep.peers.at(to);
  peer.conn->send(std::move(frame));
  flush_conn(ep, peer, now_seconds());
}

bool UdpTransport::read_endpoint(sim::NodeId id, Endpoint& ep, double now,
                                 sim::NodeId stop_after) {
  bool moved = false;
  std::uint8_t buf[kMaxDatagram];
  std::vector<wire::Buffer> delivered;
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n = ::recvfrom(ep.fd, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw_errno("recvfrom");
    }
    moved = true;
    stats().packets_received += 1;
    stats().kernel_bytes_received += static_cast<std::uint64_t>(n);
    const std::span<const std::uint8_t> packet{buf,
                                               static_cast<std::size_t>(n)};
    const std::uint64_t key =
        addr_key(src.sin_addr.s_addr, ntohs(src.sin_port));
    auto route = ep.by_addr.find(key);
    if (route == ep.by_addr.end()) {
      // Unknown source: only a Hello may introduce a peer (remote
      // sites announce themselves this way). Anything else is foreign
      // traffic and is dropped on the floor.
      if (packet.size() <= Connection::kPacketHeaderBytes) continue;
      std::size_t pos = Connection::kPacketHeaderBytes;
      const auto frame = wire::decode_frame(packet, pos);
      if (!frame || frame->kind != wire::FrameKind::kHello) continue;
      auto peer_it = ep.peers.find(frame->hello.node_id);
      if (peer_it == ep.peers.end()) continue;
      peer_it->second.ip = src.sin_addr.s_addr;
      peer_it->second.port = ntohs(src.sin_port);
      peer_it->second.addr_known = true;
      ep.by_addr[key] = frame->hello.node_id;
      route = ep.by_addr.find(key);
    }
    const sim::NodeId peer_id = route->second;
    Peer& peer = ep.peers.at(peer_id);
    delivered.clear();
    peer.conn->on_packet(packet, now, delivered);
    for (const wire::Buffer& payload : delivered) {
      on_frame_bytes(peer_id, id, payload);
    }
    if (peer_id == stop_after && !delivered.empty()) break;
  }
  return moved;
}

bool UdpTransport::pump_link(sim::NodeId from, sim::NodeId to, double now) {
  const auto it = eps_.find(to);
  if (it == eps_.end()) return false;  // remote receiver: not ours to read
  return read_endpoint(to, it->second, now, from);
}

bool UdpTransport::pump_io(double now) {
  bool moved = false;
  for (auto& [id, ep] : eps_) {
    if (read_endpoint(id, ep, now)) moved = true;
  }
  for (auto& [id, ep] : eps_) {
    for (auto& [peer_id, peer] : ep.peers) flush_conn(ep, peer, now);
  }
  if (!moved) {
    // Idle: park on the fds briefly instead of spinning (retransmit
    // timers tick at rto granularity, so a couple of ms is plenty).
    std::vector<pollfd> fds;
    fds.reserve(eps_.size());
    for (const auto& [id, ep] : eps_) {
      fds.push_back(pollfd{ep.fd, POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), 2);
  }
  return moved;
}

bool UdpTransport::links_idle() const {
  for (const auto& [id, ep] : eps_) {
    for (const auto& [peer_id, peer] : ep.peers) {
      if (!peer.conn->idle()) return false;
    }
  }
  return true;
}

bool UdpTransport::all_established() const {
  for (const auto& [id, ep] : eps_) {
    for (const auto& [peer_id, peer] : ep.peers) {
      if (!peer.conn->established()) return false;
    }
  }
  return true;
}

void UdpTransport::run_handshake() {
  // All-local: every peer is already bound, so the handshake completes
  // in a few pump rounds — block until it does, making a mis-wired
  // deployment fail at construction. Partial topology: remote peers may
  // not exist yet (a coordinator process must publish its port before
  // sites can start), so return immediately — the Hello/Welcome
  // exchange completes during normal pumping, and the conn layer
  // queues data until its connection is established.
  if (!all_local()) return;
  const double deadline = now_seconds() + 10.0;
  while (!all_established()) {
    pump_io(now_seconds());
    if (now_seconds() > deadline) {
      throw std::runtime_error("UdpTransport: handshake timed out");
    }
  }
}

}  // namespace dds::net
