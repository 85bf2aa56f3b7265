/**
 * @file
 * The compile daemon: a TCP server wrapping the layered compile stack.
 *
 *     transport (this file)  — framing, sessions, protocol
 *          |
 *     CompileService         — one DRR queue over clients, running-job
 *          |                   budget, worker pool, deadlines
 *     result cache           — memory BoundedLru, then persistent
 *                              DiskResultCache; disk hits promote
 *                              into memory
 *
 * One session per accepted connection. Its detached reader thread
 * decodes request frames and submits them straight to the service,
 * under the request's client name. The reader and every job callback
 * it submitted share the session, and its socket closes with the last
 * of them, so nothing reaps sessions: a long-lived daemon holds fds
 * and threads only for live connections and unanswered jobs.
 * Responses are STREAMED: each job's response frame goes out the
 * moment its outcome resolves (a per-session write mutex keeps frames
 * whole), so responses arrive out of order and clients correlate by
 * id. While the pool is busy, a memory-tier hit resolves on the reader
 * thread itself, so its response never waits behind queued compiles.
 * Both ends set TCP_NODELAY and a frame is one send, so no frame waits
 * on Nagle for the peer's delayed ACK. Every layer below the transport
 * is deterministic — a compile's result is a pure function of
 * (circuit, config, seed) — so the fingerprints a server streams are
 * bit-identical to a local compile_cli run at any thread count and any
 * client interleaving.
 *
 * Failures stay structured end to end: a malformed frame, an unknown
 * benchmark family, a blown deadline, or an injected fault each come
 * back as a response carrying the MusstiError taxonomy (category /
 * code / message); nothing a client sends can take the daemon down.
 *
 * Graceful drain (stop(); the example daemon calls it once sigwait()
 * returns SIGTERM or SIGINT): close the listen socket, shut the service
 * down — still-queued jobs stream Cancelled responses, running compiles
 * finish and stream their results — then shut the read side of every
 * session still reading and wait for those readers to leave. Started
 * work is never abandoned mid-compile.
 *
 * Request bounds: a family request names 0 (the 32-qubit default) to
 * kMaxServeQubits qubits, and a QASM circuit declares at most
 * kMaxServeQubits; anything else is answered with
 * serve.qubits-out-of-range before a circuit is built or compiled.
 */
#ifndef MUSSTI_SERVE_COMPILE_SERVER_H
#define MUSSTI_SERVE_COMPILE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "core/compile_service.h"
#include "serve/protocol.h"

namespace mussti {

/**
 * Largest circuit the daemon builds, in qubits: the bound on a family
 * request's `qubits` and on a QASM circuit's register. The paper's
 * largest evaluation circuits (adder:576) fit with room to spare.
 */
inline constexpr int kMaxServeQubits = 1024;

/** Daemon sizing: socket, pool, cache tiers, fairness policy. */
struct CompileServerConfig
{
    /** TCP port to bind on 127.0.0.1; 0 picks an ephemeral port
        (read it back with port()). */
    int port = 0;

    /**
     * Worker threads of the underlying service; <= 0 auto-sizes, and
     * more than CompileService::kMaxThreads is rejected.
     */
    int numThreads = 0;

    /** In-memory result-tier capacity (CompileServiceConfig). */
    std::size_t cacheCapacity = 128;

    /** Persistent disk-tier directory; empty disables the tier. */
    std::string diskCachePath;
    std::size_t diskCacheCapacity = 512;

    /**
     * Fairness policy of the service queue. Unlike the library
     * default, the daemon caps each client at 4 running jobs, so one
     * tenant never holds every worker.
     */
    FairAdmissionConfig admission{256, 4};
};

/**
 * The daemon. Construction builds the stack; start() binds and begins
 * accepting; stop() drains gracefully. One instance per process is the
 * intended shape, but nothing is global — tests run several.
 */
class CompileServer
{
  public:
    explicit CompileServer(const CompileServerConfig &config = {});
    ~CompileServer();

    CompileServer(const CompileServer &) = delete;
    CompileServer &operator=(const CompileServer &) = delete;

    /**
     * Bind 127.0.0.1:port, listen, and spawn the accept loop. False if
     * the socket could not be bound (port taken, no permission) — the
     * object is then inert and stop() is a no-op.
     */
    bool start();

    /**
     * Graceful drain, in layer order: stop accepting, shut the service
     * down (queued jobs stream Cancelled responses, running compiles
     * finish), cut the sessions' read sides and wait for their readers
     * to leave. Idempotent; the destructor calls it.
     */
    void stop();

    /** The bound port (resolved after start(), also for port = 0). */
    int port() const { return port_; }

    /** Layer introspection (stats endpoints, tests). */
    const CompileService &service() const { return service_; }

  private:
    /**
     * One connection. The reader thread and each pending job callback
     * hold it by shared_ptr; the last one to let go closes the socket.
     */
    struct Session
    {
        explicit Session(int socket) : fd(socket) {}
        ~Session();

        const int fd;
        std::mutex writeMutex; ///< One frame at a time.
    };
    using SessionPtr = std::shared_ptr<Session>;

    void acceptLoop();
    void sessionLoop(const SessionPtr &session);

    /** Decode + execute one request frame, streaming the response(s). */
    void handleFrame(const SessionPtr &session, const std::string &payload);

    /** Submit one compile to the service; the response streams later. */
    void handleCompile(const SessionPtr &session, ServeRequest request);

    /** Answer a stats request inline. */
    void handleStats(Session &session, std::uint64_t id);

    static void sendResponse(Session &session, const ServeResponse &response);

    /**
     * Build the CompileRequest a protocol request describes — circuit,
     * backend, seed, absolute deadline (anchored now). Throws the
     * structured taxonomy on anything malformed or out of bounds;
     * handleCompile converts that into an InvalidInput-class response.
     */
    CompileRequest buildRequest(const ServeRequest &request) const;

    CompileServerConfig config_;
    CompileService service_;

    int listenFd_ = -1;
    int port_ = 0;
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false; ///< stop() ran to completion (stopMutex_).
    std::mutex stopMutex_;

    /** Fds of the sessions whose reader is still running. */
    std::mutex sessionsMutex_;
    std::set<int> readers_;
    std::condition_variable readersLeft_; ///< readers_ became empty.
};

} // namespace mussti

#endif // MUSSTI_SERVE_COMPILE_SERVER_H
