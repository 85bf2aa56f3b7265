/**
 * @file
 * Client library for the compile daemon.
 *
 * Thin and synchronous by design: send() writes one request frame and
 * returns its id; await(id) reads response frames until that id's
 * arrives, buffering any OTHER responses it passes (the server streams
 * results in completion order, not submission order). A client can
 * therefore pipeline a whole batch — send everything, then await each
 * id — and still collect out-of-order completions without threads.
 *
 * Not thread-safe: one CompileClient per connection per thread.
 * Concurrent load (the fairness tests, the CI smoke) runs one client
 * object per thread, each with its own connection and admission
 * identity.
 *
 * A dropped connection never throws: awaits resolve with a synthetic
 * Cancelled-category `serve.connection-lost` error response, mirroring
 * how the server itself degrades queued work at shutdown.
 */
#ifndef MUSSTI_SERVE_COMPILE_CLIENT_H
#define MUSSTI_SERVE_COMPILE_CLIENT_H

#include <cstdint>
#include <string>
#include <unordered_map>

#include "serve/protocol.h"

namespace mussti {

/** One connection to a CompileServer. */
class CompileClient
{
  public:
    CompileClient() = default;
    ~CompileClient();

    CompileClient(const CompileClient &) = delete;
    CompileClient &operator=(const CompileClient &) = delete;

    /**
     * Connect to a daemon on `host`:`port`; false on failure, including
     * a port outside 1..65535.
     */
    bool connect(const std::string &host, int port);

    bool connected() const { return fd_ >= 0; }

    /**
     * Send one request, assigning it the next id (any id in the passed
     * request is overwritten); returns that id for await(). False
     * return values surface as a connection-lost response from await.
     */
    std::uint64_t send(ServeRequest request);

    /** The response to `id`, however many other frames arrive first. */
    ServeResponse await(std::uint64_t id);

    /** Convenience: stats round-trip. */
    ServeResponse stats(const std::string &client = "");

    void close();

  private:
    ServeResponse connectionLost(std::uint64_t id) const;

    int fd_ = -1;
    std::uint64_t nextId_ = 1;
    std::unordered_map<std::uint64_t, ServeResponse> pending_;
};

} // namespace mussti

#endif // MUSSTI_SERVE_COMPILE_CLIENT_H
