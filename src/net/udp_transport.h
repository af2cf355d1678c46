// UDP transport: datagrams on 127.0.0.1 with the conn-layer reliability
// machinery (sequence numbers, redundant ack-bits, retransmit-on-nack)
// turning the lossy pipe into in-order exactly-once frame delivery.
//
// Topology: one UDP socket per local node; one Connection per directed
// (site, coordinator) pairing at each endpoint — the site side
// initiates the Hello/Welcome handshake, the coordinator side responds.
// The constructor runs the handshake to completion (every connection
// established) before returning, so a mis-wired deployment fails at
// construction, not mid-protocol.
//
// Each datagram is one conn-layer packet: a 14-byte reliability header
// followed by at most one wire frame. Batches keep frames far below the
// loopback MTU. Send-side EAGAIN/ENOBUFS is deliberately treated as a
// drop: the reliability layer retransmits, which is the point of having
// it.
//
// Acks ride on data. ship_frame() polls only the addressed connection,
// and the targeted pump_link() reads only the receiver's socket, so a
// received packet's ack is owed until the reverse direction next sends
// data (which carries it) or a full pump_io() sweep polls every
// connection. Ack-only datagrams therefore go out from full sweeps
// (the drain's no-progress fallback, finish()'s link-idle wait,
// dds_node's pump()) and otherwise only from a send that finds its own
// window full while it owes an ack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "net/conn.h"
#include "net/socket_transport.h"

namespace dds::net {

class UdpTransport final : public SocketTransport {
 public:
  UdpTransport(std::uint32_t num_sites, const NetworkConfig& config,
               std::uint32_t num_coordinators = 1, SocketTopology topology = {},
               ConnConfig conn_config = {});
  ~UdpTransport() override;

  /// Bound UDP port of a local node (tests and dds_node's --port-file).
  std::uint16_t port_of(sim::NodeId id) const;

  /// Sum of every connection's reliability counters.
  ConnStats conn_totals() const;

  /// Adds the conn.* counters (data_sent, retransmits, nack_retransmits,
  /// ack_only_sent, duplicates, held_out_of_order), summed over every
  /// connection, to the socket.* and net.* ones.
  void bind_observability(obs::MetricsRegistry* registry,
                          obs::Tracer* tracer) override;

 protected:
  void ship_frame(sim::NodeId from, sim::NodeId to,
                  wire::Buffer frame) override;
  bool pump_io(double now) override;
  /// Reads the `to` socket only, stopping as soon as a payload from
  /// `from` is released.
  bool pump_link(sim::NodeId from, sim::NodeId to, double now) override;
  bool links_idle() const override;

 private:
  struct Peer {
    std::uint32_t ip = 0;    ///< network byte order
    std::uint16_t port = 0;  ///< host byte order
    bool addr_known = false;
    std::unique_ptr<Connection> conn;
  };

  struct Endpoint {
    int fd = -1;
    std::uint16_t port = 0;
    std::map<sim::NodeId, Peer> peers;
    /// (ip << 16 | port) -> peer node, for routing received datagrams.
    std::map<std::uint64_t, sim::NodeId> by_addr;
  };

  static constexpr sim::NodeId kNoNode = ~sim::NodeId{0};

  void open_endpoint(sim::NodeId id);
  /// Polls one connection and sends whatever it emits.
  void flush_conn(Endpoint& ep, Peer& peer, double now);
  void send_packet(Endpoint& ep, const Peer& peer, const OutPacket& pkt);
  /// Reads `ep` until the socket is empty, or until a datagram from
  /// `stop_after` has released a payload.
  bool read_endpoint(sim::NodeId id, Endpoint& ep, double now,
                     sim::NodeId stop_after = kNoNode);
  void run_handshake();
  bool all_established() const;

  ConnConfig conn_config_;
  std::map<sim::NodeId, Endpoint> eps_;
};

}  // namespace dds::net
