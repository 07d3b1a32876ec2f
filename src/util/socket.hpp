#pragma once
// Thin RAII layer over POSIX stream sockets (Unix-domain and loopback TCP)
// plus the length-prefixed framing the synthesis service speaks.
//
// Frame format (docs/service.md):
//
//   +------+------+------+------+------+------+------+------+-- ... --+
//   | 'E'  | 'M'  | 'S'  | '1'  |  payload length, u32 LE   | payload |
//   +------+------+------+------+------+------+------+------+-- ... --+
//
// The 4-byte magic "EMS1" rejects stray protocols (and byte-order mistakes)
// immediately; the length is capped so a lying client cannot make the
// server allocate unboundedly. Payloads are UTF-8 JSON documents
// (src/service/protocol.hpp defines the messages).
//
// All writes use send(MSG_NOSIGNAL): a client that disconnects mid-response
// produces an error return, never a SIGPIPE that would kill the daemon.
// TCP sockets, connected or accepted, have TCP_NODELAY set.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace emorphic {

/// Largest accepted frame payload (64 MiB — a multi-million-gate AIGER
/// text fits; anything bigger is a protocol violation).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Move-only RAII wrapper of one socket file descriptor. Errors throw
/// std::runtime_error carrying errno text; clean peer EOF is reported by
/// return value where it is an expected outcome.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // --- factories ---------------------------------------------------------

  /// Bind + listen on a Unix-domain socket path (unlinks a stale file).
  static Socket listen_unix(const std::string& path, int backlog = 16);
  /// Bind + listen on 127.0.0.1:`port` (0 = ephemeral); the actually bound
  /// port is stored in *bound_port.
  static Socket listen_tcp_loopback(std::uint16_t port,
                                    std::uint16_t* bound_port,
                                    int backlog = 16);
  static Socket connect_unix(const std::string& path);
  static Socket connect_tcp(const std::string& host, std::uint16_t port);
  /// A connected AF_UNIX pair (for in-process protocol tests).
  static std::pair<Socket, Socket> pair();

  // --- operations --------------------------------------------------------

  /// Accept one connection. Returns an invalid Socket when the listener
  /// was shut down (the server's stop path); throws on other errors.
  Socket accept() const;

  /// shutdown(RDWR): unblocks accept()/recv() in other threads without
  /// closing the descriptor out from under them.
  void shutdown_both();

  void close();

  /// Read exactly `n` bytes. Returns false on clean EOF before the first
  /// byte; throws on errors or EOF mid-read.
  bool read_exact(void* buffer, std::size_t n) const;

  /// Write all `n` bytes (send with MSG_NOSIGNAL); throws on error.
  void write_all(const void* buffer, std::size_t n) const;

 private:
  int fd_ = -1;
};

/// Read one frame into *payload. Returns false on clean EOF between frames;
/// throws std::runtime_error on bad magic, an over-limit length, or EOF
/// mid-frame.
bool read_frame(const Socket& socket, std::string* payload,
                std::uint32_t max_bytes = kMaxFrameBytes);

/// Write one frame; throws on error (e.g. the peer vanished).
void write_frame(const Socket& socket, std::string_view payload);

}  // namespace emorphic
