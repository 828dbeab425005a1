/**
 * @file
 * ims-serve: scheduling-as-a-service over stdin/stdout. Runs a
 * ScheduleService (machine registry + content-addressed schedule cache +
 * bounded worker queue) and speaks a line-delimited request/response
 * protocol — no sockets, so it composes with pipes, CI scripts and
 * editor integrations alike.
 *
 * Usage: ims-serve [options]
 *   --threads <n>         worker threads (0 = hardware concurrency)
 *   --cache-capacity <n>  cached schedules before LRU eviction (4096)
 *   --cache-shards <n>    cache lock shards (16)
 *   --max-queue <n>       queued requests before admission control
 *                         rejects with service.overloaded (1024)
 *   --machine <name>      default machine for schedule requests (cydra5)
 *   --scheduler iterative|slack|exact    default backend
 *   --budget-ratio <r>    default BudgetRatio (2.0)
 *   --load-cache <path>   re-materialize a saved cache before serving
 *   --save-cache <path>   save the cache on quit/EOF
 * A numeric value that does not parse in full prints usage and exits 2.
 *
 * Protocol (one request per line; multi-line payloads are byte-counted):
 *   schedule <bytes> [client=<name>] [machine=<name>]
 *   <bytes of loop text in the mini-IR format>
 *       -> result <loop> ok ii=<n> mii=<n> length=<n> fingerprint=<hex>
 *        | result <loop> failed code=<diagnostic code>
 *       then: meta hit=<0|1> key=<hex> queue_ms=<t> service_ms=<t>
 *   register <name> <bytes>      (machine_io text payload)
 *   machines                     -> ok <name>...
 *   stats                        -> one ims.service_stats.v1 JSON line
 *   save <path> | load <path>    cache persistence
 *   quit
 *   Failures answer: error <code> <message>
 *
 * Responses are printed in request order. The `result` line is a pure
 * function of (loop, machine, options) — timings and cache state live on
 * the `meta` line — so replaying a request stream must reproduce every
 * result line byte-for-byte (scripts/ci.sh gates on exactly that).
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "service/schedule_service.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace {

using namespace ims;

[[noreturn]] void
usage(int code)
{
    std::cerr << "usage: ims-serve [--threads n] [--cache-capacity n] "
                 "[--cache-shards n]\n"
                 "                 [--max-queue n] [--machine name] "
                 "[--scheduler iterative|slack|exact]\n"
                 "                 [--budget-ratio r] [--load-cache path] "
                 "[--save-cache path]\n";
    std::exit(code);
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << std::hex << value;
    return out.str();
}

std::string
milliseconds(double seconds)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << seconds * 1000.0;
    return out.str();
}

/** Deterministic response line for one handled schedule request. */
std::string
resultLine(const service::ServiceResponse& response)
{
    if (response.status != service::ServiceResponse::Status::kOk)
        return "error " + response.errorCode + " " + response.errorMessage;

    std::ostringstream out;
    const core::PipelineResult& result = *response.result;
    out << "result " << response.loopName;
    if (result.ok()) {
        const auto& artifacts = *result.artifacts;
        out << " ok ii=" << artifacts.outcome.schedule.ii
            << " mii=" << artifacts.outcome.mii
            << " length=" << artifacts.outcome.schedule.scheduleLength;
    } else {
        std::string code = "error.unknown";
        for (const auto& diagnostic : result.diagnostics)
            if (diagnostic.severity == core::Diagnostic::Severity::kError) {
                code = diagnostic.code;
                break;
            }
        out << " failed code=" << code;
    }
    out << " fingerprint="
        << hex(service::fingerprintResult(*response.loop,
                                          response.model->model, result));
    return out.str();
}

std::string
metaLine(const service::ServiceResponse& response)
{
    std::ostringstream out;
    out << "meta hit=" << (response.cacheHit ? 1 : 0) << " key="
        << hex(response.key)
        << " queue_ms=" << milliseconds(response.queueSeconds)
        << " service_ms=" << milliseconds(response.serviceSeconds);
    return out.str();
}

/** A numeric flag value parsed in full; usage and exit 2 otherwise. */
template <class T>
T
numberOrUsage(const std::string& text)
{
    const auto value = support::parseNumber<T>(text);
    if (!value) {
        std::cerr << "ims-serve: bad number '" << text << "'\n";
        usage(2);
    }
    return *value;
}

/**
 * The next token of a request line as a byte count, read in full as an
 * unsigned number: "-1" or "5x" is no count (a signed one would wrap).
 */
std::optional<std::size_t>
readByteCount(std::istream& request)
{
    std::string token;
    request >> token;
    return support::parseNumber<std::size_t>(token);
}

/**
 * Read exactly `bytes` bytes (the payload of a byte-counted request). The
 * buffer grows one chunk at a time with the bytes that actually arrive,
 * so a huge byte count on a short stream costs only what was sent.
 */
bool
readPayload(std::istream& in, std::size_t bytes, std::string& out)
{
    constexpr std::size_t kChunk = 64 * 1024;
    out.clear();
    while (out.size() < bytes) {
        const std::size_t have = out.size();
        const std::size_t want = std::min(kChunk, bytes - have);
        out.resize(have + want);
        in.read(out.data() + have, static_cast<std::streamsize>(want));
        const auto got = static_cast<std::size_t>(in.gcount());
        out.resize(have + got);
        if (got != want)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    service::ServiceOptions options;
    std::string default_machine = "cydra5";
    std::string load_path;
    std::string save_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--threads")
            options.threads = numberOrUsage<int>(next());
        else if (arg == "--cache-capacity")
            options.cache.capacity = numberOrUsage<std::size_t>(next());
        else if (arg == "--cache-shards")
            options.cache.shards = numberOrUsage<int>(next());
        else if (arg == "--max-queue")
            options.maxQueuedRequests = numberOrUsage<std::size_t>(next());
        else if (arg == "--machine")
            default_machine = next();
        else if (arg == "--scheduler") {
            const auto strategy = sched::schedulerStrategyByName(next());
            if (!strategy)
                usage(2);
            options.pipeline.withScheduler(*strategy);
        } else if (arg == "--budget-ratio")
            options.pipeline.withBudgetRatio(numberOrUsage<double>(next()));
        else if (arg == "--load-cache")
            load_path = next();
        else if (arg == "--save-cache")
            save_path = next();
        else if (arg == "--help")
            usage(0);
        else
            usage(2);
    }

    service::ScheduleService server(options);

    if (!load_path.empty()) {
        std::ifstream in(load_path);
        if (!in) {
            std::cerr << "ims-serve: cannot read " << load_path << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        try {
            const std::size_t loaded = server.loadCacheText(text.str());
            std::cerr << "ims-serve: re-materialized " << loaded
                      << " cached schedules from " << load_path << "\n";
        } catch (const support::Error& error) {
            std::cerr << "ims-serve: " << error.what() << "\n";
            return 1;
        }
    }

    // Responses are printed strictly in request order: each schedule
    // request's future is queued here, and the front is flushed as soon
    // as it is ready (or force-flushed at EOF / before a sync command).
    std::deque<std::future<service::ServiceResponse>> inflight;
    const auto flush_front = [&]() {
        const service::ServiceResponse response = inflight.front().get();
        inflight.pop_front();
        std::cout << resultLine(response) << "\n";
        if (response.status == service::ServiceResponse::Status::kOk)
            std::cout << metaLine(response) << "\n";
        std::cout.flush();
    };
    const auto flush_all = [&]() {
        while (!inflight.empty())
            flush_front();
    };
    const auto flush_ready = [&]() {
        while (!inflight.empty() &&
               inflight.front().wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready)
            flush_front();
    };

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        std::istringstream request(line);
        std::string command;
        request >> command;

        if (command == "schedule") {
            const std::optional<std::size_t> bytes = readByteCount(request);
            if (!bytes) {
                flush_all();
                std::cout << "error service.bad_request missing byte count\n"
                          << std::flush;
                continue;
            }
            service::ServiceRequest item;
            item.machine = default_machine;
            std::string attribute;
            while (request >> attribute) {
                if (attribute.rfind("client=", 0) == 0)
                    item.client = attribute.substr(7);
                else if (attribute.rfind("machine=", 0) == 0)
                    item.machine = attribute.substr(8);
            }
            if (!readPayload(std::cin, *bytes, item.loopText)) {
                flush_all();
                std::cout << "error service.bad_request truncated payload\n"
                          << std::flush;
                break;
            }
            inflight.push_back(server.submit(std::move(item)));
            flush_ready();
        } else if (command == "register") {
            flush_all();
            std::string name;
            request >> name;
            const std::optional<std::size_t> bytes = readByteCount(request);
            std::string text;
            if (!bytes || !readPayload(std::cin, *bytes, text)) {
                std::cout << "error service.bad_request malformed register\n"
                          << std::flush;
                continue;
            }
            try {
                server.models().registerText(name, text);
                std::cout << "ok registered " << name << "\n" << std::flush;
            } catch (const support::Error& error) {
                std::cout << "error service.bad_machine " << error.what()
                          << "\n"
                          << std::flush;
            }
        } else if (command == "machines") {
            flush_all();
            std::cout << "ok";
            for (const auto& name : server.models().names())
                std::cout << " " << name;
            std::cout << "\n" << std::flush;
        } else if (command == "stats") {
            flush_all();
            std::cout << server.stats().toJson() << "\n" << std::flush;
        } else if (command == "save") {
            flush_all();
            std::string path;
            request >> path;
            std::ofstream out(path, std::ios::binary);
            if (!out) {
                std::cout << "error service.io cannot write " << path << "\n"
                          << std::flush;
                continue;
            }
            out << server.saveCacheText();
            std::cout << "ok saved " << path << "\n" << std::flush;
        } else if (command == "load") {
            flush_all();
            std::string path;
            request >> path;
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                std::cout << "error service.io cannot read " << path << "\n"
                          << std::flush;
                continue;
            }
            std::ostringstream text;
            text << in.rdbuf();
            try {
                const std::size_t loaded = server.loadCacheText(text.str());
                std::cout << "ok loaded " << loaded << "\n" << std::flush;
            } catch (const support::Error& error) {
                std::cout << "error service.bad_cache_file " << error.what()
                          << "\n"
                          << std::flush;
            }
        } else if (command == "quit") {
            break;
        } else {
            flush_all();
            std::cout << "error service.bad_request unknown command '"
                      << command << "'\n"
                      << std::flush;
        }
    }
    flush_all();

    if (!save_path.empty()) {
        std::ofstream out(save_path, std::ios::binary);
        if (!out) {
            std::cerr << "ims-serve: cannot write " << save_path << "\n";
            return 1;
        }
        out << server.saveCacheText();
        std::cerr << "ims-serve: saved cache to " << save_path << "\n";
    }
    return 0;
}
