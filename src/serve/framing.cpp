#include "serve/framing.h"

#include <cerrno>
#include <cstdint>

#include <sys/socket.h>
#include <sys/types.h>

namespace mussti {

namespace {

/**
 * recv exactly `len` bytes. 1 = got them, 0 = clean EOF before the
 * first byte, -1 = error or mid-buffer EOF.
 */
int
recvAll(int fd, char *buffer, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, buffer + got, len - got, 0);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)
            return got == 0 ? 0 : -1;
        if (errno == EINTR)
            continue;
        return -1;
    }
    return 1;
}

bool
sendAll(int fd, const char *buffer, std::size_t len)
{
    std::size_t sent = 0;
    while (sent < len) {
        const ssize_t n =
            ::send(fd, buffer + sent, len - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

} // namespace

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const auto len = static_cast<std::uint32_t>(payload.size());
    char prefix[4] = {
        static_cast<char>((len >> 24) & 0xff),
        static_cast<char>((len >> 16) & 0xff),
        static_cast<char>((len >> 8) & 0xff),
        static_cast<char>(len & 0xff),
    };
    // Two sends, not one buffer, and this costs latency: Nagle holds the
    // payload until the peer ACKs the 4-byte prefix, and the peer delays
    // that ACK. On a shared 4-core kernel-6.18 host a cached round trip
    // (perfbench serve-cached) takes 88 ms p50. One send alone spread
    // serve-mixed p90 there from 53-56 ms to 49-95 ms, because cache
    // hits still queue behind cold compiles; the one-send fix belongs
    // with a change that stops that queueing.
    return sendAll(fd, prefix, sizeof prefix) &&
           sendAll(fd, payload.data(), payload.size());
}

bool
readFrame(int fd, std::string &payload, std::size_t max_bytes)
{
    char prefix[4];
    if (recvAll(fd, prefix, sizeof prefix) != 1)
        return false;
    const std::uint32_t len =
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0]))
         << 24) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
         << 8) |
        static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]));
    if (len > max_bytes)
        return false; // Garbage prefix or hostile peer; don't allocate.
    payload.resize(len);
    return len == 0 || recvAll(fd, payload.data(), len) == 1;
}

} // namespace mussti
