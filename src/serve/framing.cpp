#include "serve/framing.h"

#include <cerrno>
#include <cstdint>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

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

/**
 * Send the iovecs in full as one sendmsg stream, looping on partial
 * writes. False on any error other than EINTR.
 */
bool
sendAll(int fd, iovec *iov, std::size_t count)
{
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = count;
    while (message.msg_iovlen > 0) {
        ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        // Drop the fully sent iovecs, then trim the partly sent one.
        while (message.msg_iovlen > 0 &&
               static_cast<std::size_t>(n) >= message.msg_iov->iov_len) {
            n -= static_cast<ssize_t>(message.msg_iov->iov_len);
            ++message.msg_iov;
            --message.msg_iovlen;
        }
        if (message.msg_iovlen > 0) {
            message.msg_iov->iov_base =
                static_cast<char *>(message.msg_iov->iov_base) + n;
            message.msg_iov->iov_len -= static_cast<std::size_t>(n);
        }
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
    // Prefix and payload leave in one sendmsg: as two sends, Nagle
    // would hold the payload until the peer's delayed ACK of the
    // prefix, 40 ms or more per frame.
    iovec iov[2] = {
        {prefix, sizeof prefix},
        {const_cast<char *>(payload.data()), payload.size()},
    };
    return sendAll(fd, iov, payload.empty() ? 1 : 2);
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
