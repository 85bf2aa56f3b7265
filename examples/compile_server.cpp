/**
 * @file
 * The compile daemon binary.
 *
 *   compile_server [options]
 *
 * Options:
 *   --port N        TCP port on 127.0.0.1 (default 7717; 0 = ephemeral,
 *                   printed on stdout for scripts to scrape)
 *   --threads N     service worker threads (default: auto; at most 512)
 *   --cache N       in-memory result-cache capacity (default 128)
 *   --disk-cache D  directory of the persistent result tier (default:
 *                   off); a restarted daemon pointed at the same
 *                   directory serves repeat compiles from disk
 *   --disk-cap N    disk-tier entry bound (default 512; 0 = unbounded)
 *   --quantum N     DRR gate-credit quantum (default 256)
 *   --inflight N    per-client budget of running jobs (default 4;
 *                   0 = off)
 *
 * SIGTERM/SIGINT drain gracefully: stop accepting, stream Cancelled for
 * still-queued jobs, finish running compiles, exit 0. Both signals are
 * blocked before any server thread starts, so every thread inherits the
 * mask and the main thread takes them synchronously with sigwait().
 */
#include <csignal>
#include <iostream>
#include <string>

#include <pthread.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "serve/compile_server.h"

using namespace mussti;

namespace {

void
usage()
{
    std::cerr <<
        "usage: compile_server [--port N] [--threads N] [--cache N]\n"
        "                      [--disk-cache DIR] [--disk-cap N]\n"
        "                      [--quantum N] [--inflight N]\n";
}

/** parseIntArg, then reject values below `min` (exit 2 via fatal()). */
int
parseAtLeast(const std::string &text, const std::string &what, int min)
{
    const int value = parseIntArg(text, what);
    MUSSTI_REQUIRE(value >= min, what << " `" << text
                                      << "` must be at least " << min);
    return value;
}

int
run(int argc, char **argv)
{
    CompileServerConfig config;
    config.port = 7717;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            const std::string text = argv[++i];
            config.port = parseAtLeast(text, "port", 0);
            MUSSTI_REQUIRE(config.port <= 65535,
                           "port `" << text << "` exceeds 65535");
        } else if (arg == "--threads" && i + 1 < argc) {
            config.numThreads = parseAtLeast(argv[++i], "thread count", 0);
        } else if (arg == "--cache" && i + 1 < argc) {
            config.cacheCapacity = static_cast<std::size_t>(
                parseAtLeast(argv[++i], "cache capacity", 0));
        } else if (arg == "--disk-cache" && i + 1 < argc) {
            config.diskCachePath = argv[++i];
        } else if (arg == "--disk-cap" && i + 1 < argc) {
            config.diskCacheCapacity = static_cast<std::size_t>(
                parseAtLeast(argv[++i], "disk-tier capacity", 0));
        } else if (arg == "--quantum" && i + 1 < argc) {
            config.admission.quantum = static_cast<std::uint64_t>(
                parseAtLeast(argv[++i], "DRR quantum", 0));
        } else if (arg == "--inflight" && i + 1 < argc) {
            config.admission.maxInFlightPerClient =
                static_cast<std::size_t>(
                    parseAtLeast(argv[++i], "in-flight budget", 0));
        } else {
            usage();
            return 2;
        }
    }

    sigset_t drain_signals;
    sigemptyset(&drain_signals);
    sigaddset(&drain_signals, SIGTERM);
    sigaddset(&drain_signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);

    CompileServer server(config);
    if (!server.start()) {
        std::cerr << "compile_server: cannot bind 127.0.0.1:"
                  << config.port << "\n";
        return 1;
    }

    // Scripts scrape this line (the CI smoke boots with --port 0).
    std::cout << "compile_server: listening on 127.0.0.1:"
              << server.port() << std::endl;

    int received = 0;
    sigwait(&drain_signals, &received);
    std::cout << "compile_server: draining" << std::endl;
    server.stop();
    std::cout << "compile_server: stopped" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCliMain(run, argc, argv);
}
