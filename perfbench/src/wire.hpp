// Client side of the mhhead wire protocol (src/server/protocol.hpp): UNIX
// socket connect, blocking frame I/O and the hello handshake.
#pragma once

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "src/core/params.hpp"
#include "src/crypto/session.hpp"
#include "src/server/protocol.hpp"

namespace perfbench {

inline int connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed");
  }
  return fd;
}

inline void write_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t w = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error("write to the server failed");
    bytes = bytes.subspan(static_cast<std::size_t>(w));
  }
}

/// Blocking read of one frame from `fd`. `carry` holds bytes read past the
/// previous frame and keeps any read past this one.
inline void read_frame(int fd, Bytes& carry, std::uint8_t& tag, Bytes& body) {
  for (;;) {
    if (carry.size() >= mhhea::server::kLenPrefixBytes) {
      const std::uint32_t len = mhhea::server::get_u32le(carry.data());
      if (len == 0) throw std::runtime_error("zero-length frame from the server");
      const std::size_t total = mhhea::server::kLenPrefixBytes + len;
      if (carry.size() >= total) {
        tag = carry[mhhea::server::kLenPrefixBytes];
        body.assign(carry.begin() + mhhea::server::kLenPrefixBytes + 1,
                    carry.begin() + static_cast<std::ptrdiff_t>(total));
        carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(total));
        return;
      }
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    carry.insert(carry.end(), buf, buf + n);
  }
}

/// A connected client: the socket plus the Session pair the hello salt
/// derives — c2s seals requests, s2c opens responses.
struct Hello {
  int fd = -1;
  mhhea::crypto::Session c2s;
  mhhea::crypto::Session s2c;
};

/// Connect, read the server hello and derive both client Sessions.
inline Hello handshake(const std::string& path, const Bytes& master) {
  const int fd = connect_uds(path);
  try {
    Bytes carry;
    Bytes body;
    std::uint8_t tag = 0;
    read_frame(fd, carry, tag, body);
    if (tag != static_cast<std::uint8_t>(mhhea::server::Status::kHello) || !carry.empty()) {
      throw std::runtime_error("expected the server hello as the first frame");
    }
    const auto hello = mhhea::server::parse_hello_body(body);
    const auto params = mhhea::core::BlockParams::hardware();
    return Hello{fd,
                 mhhea::crypto::Session::from_master(
                     master, mhhea::server::c2s_context(hello.salt), 8, params),
                 mhhea::crypto::Session::from_master(
                     master, mhhea::server::s2c_context(hello.salt), 8, params)};
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace perfbench
