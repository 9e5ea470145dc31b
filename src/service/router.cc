#include "service/router.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "service/address.hh"
#include "service/frame.hh"
#include "service/request.hh"

namespace cisa
{

namespace
{

int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Router::Router(const Options &opts) : opts_(opts)
{
    if (opts_.address.empty())
        opts_.address = serveSocketPath();
    if (opts_.replicas <= 0)
        opts_.replicas = routerReplicas();
    if (opts_.poolConns <= 0)
        opts_.poolConns = routerPoolConns();
    if (opts_.healthMs <= 0)
        opts_.healthMs = routerHealthMs();
    if (opts_.backlog <= 0)
        opts_.backlog = serveBacklog();
    if (opts_.breakerFails <= 0)
        opts_.breakerFails = breakerFails();
    if (opts_.breakerCooldownMs <= 0)
        opts_.breakerCooldownMs = breakerCooldownMs();
    maxConns_ = size_t(opts_.maxConns > 0 ? opts_.maxConns
                                          : serveMaxConns());
    ring_ = ShardRing(opts_.workers);
    // Worker slots must line up with ring indices, so build them
    // from the ring's canonicalized (sorted, deduped) address list.
    for (const std::string &a : ring_.workers()) {
        auto w = std::make_unique<Worker>();
        w->addr = a;
        workers_.push_back(std::move(w));
    }
}

Router::~Router()
{
    stop();
}

bool
Router::start(std::string *err)
{
    panic_if(started_, "router started twice");
    if (workers_.empty()) {
        if (err)
            *err = "router needs at least one worker";
        return false;
    }
    listenFd_ = listenOn(opts_.address, opts_.backlog, &bound_, err);
    if (listenFd_ < 0)
        return false;
    if (::pipe(wakePipe_) != 0) {
        if (err)
            *err = strfmt("pipe: %s", std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        unlinkIfUnix(bound_);
        return false;
    }
    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    health_ = std::thread([this] { healthLoop(); });
    inform("cisa-router listening on %s (%zu workers, R=%d)",
           bound_.c_str(), workers_.size(), opts_.replicas);
    return true;
}

void
Router::requestStop()
{
    // Async-signal-safe: one atomic store and one write(). The
    // health thread polls the flag on its next timeout tick.
    stopRequested_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        char b = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
    }
}

void
Router::waitUntilStopped()
{
    if (!started_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    stop();
}

void
Router::stop()
{
    if (!started_ || stopped_.exchange(true))
        return;

    requestStop();
    if (acceptor_.joinable())
        acceptor_.join();
    healthCv_.notify_all();
    if (health_.joinable())
        health_.join();

    // Unblock client readers, then wait for their threads; each
    // closes its own fd (same protocol as the daemon).
    {
        std::unique_lock<std::mutex> lk(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RD);
        connCv_.wait(lk, [&] { return connCount_ == 0; });
    }

    ::close(listenFd_);
    listenFd_ = -1;
    unlinkIfUnix(bound_);
    ::close(wakePipe_[0]);
    ::close(wakePipe_[1]);
    wakePipe_[0] = wakePipe_[1] = -1;

    for (auto &w : workers_) {
        std::lock_guard<std::mutex> lk(w->mu);
        for (int fd : w->pool)
            ::close(fd);
        w->pool.clear();
    }
    inform("cisa-router stopped (%s)", bound_.c_str());
}

void
Router::acceptLoop()
{
    for (;;) {
        if (stopRequested_.load(std::memory_order_acquire))
            return;
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("cisa-router accept poll: %s",
                 std::strerror(errno));
            return;
        }
        if (fds[1].revents ||
            stopRequested_.load(std::memory_order_acquire))
            return;
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            warn("cisa-router accept: %s", std::strerror(errno));
            continue;
        }
        setNoDelay(fd);
        bool over;
        {
            std::lock_guard<std::mutex> lk(connMu_);
            over = connCount_ >= maxConns_;
            if (!over) {
                connFds_.insert(fd);
                connCount_++;
            }
        }
        if (over) {
            connsRejected_.fetch_add(1, std::memory_order_relaxed);
            ByteWriter w;
            Response::fail(Status::Busy, "connection limit")
                .encode(w);
            writeFrame(fd, FrameKind::Response, w.take());
            ::close(fd);
            continue;
        }
        connsAccepted_.fetch_add(1, std::memory_order_relaxed);
        std::thread([this, fd] { serveConnection(fd); }).detach();
    }
}

void
Router::serveConnection(int fd)
{
    serveFrames(fd);
    std::lock_guard<std::mutex> lk(connMu_);
    connFds_.erase(fd);
    ::close(fd);
    connCount_--;
    connCv_.notify_all();
}

void
Router::serveFrames(int fd)
{
    // Reused across requests: readFrameWire resizes in place, so a
    // steady stream of ~140 KiB slab relays costs no allocations
    // after the first.
    std::vector<uint8_t> reqWire, respWire;
    for (;;) {
        FrameKind kind;
        std::string err;
        // Requests are small (tens of bytes): verifying their
        // checksum here costs nothing and catches corruption before
        // it picks a worker.
        FrameRead fr = readFrameWire(fd, &reqWire, &kind, &err, true);
        if (fr == FrameRead::Eof)
            return;
        if (fr == FrameRead::Bad) {
            ByteWriter w;
            Response::fail(Status::BadRequest, err).encode(w);
            writeFrame(fd, FrameKind::Response, w.take());
            return; // framing untrustworthy: close, like the daemon
        }

        Request req;
        uint32_t deadline_ms = 0;
        if (kind != FrameKind::Request) {
            ByteWriter w;
            Response::fail(Status::BadRequest,
                           "expected a request frame")
                .encode(w);
            if (!writeFrame(fd, FrameKind::Response, w.take()))
                return;
            continue;
        }
        if (!decodeRequestEnvelope(reqWire.data() + kFrameHeaderBytes,
                                   reqWire.size() - kFrameHeaderBytes,
                                   &req, &deadline_ms, &err)) {
            ByteWriter w;
            Response::fail(Status::BadRequest, err).encode(w);
            if (!writeFrame(fd, FrameKind::Response, w.take()))
                return;
            continue;
        }

        if (req.type == ReqType::Stats) {
            // Answered by the router: the fleet roll-up, not any
            // single worker's view.
            Response resp;
            ByteWriter body;
            fleetStats().encode(body);
            resp.body = body.take();
            ByteWriter w;
            resp.encode(w);
            if (!writeFrame(fd, FrameKind::Response, w.take()))
                return;
            continue;
        }

        forward(req, deadline_ms, reqWire, &respWire);
        if (!writeWire(fd, respWire))
            return;
    }
}

std::pair<int, bool>
Router::borrowConn(Worker &w, std::string *err)
{
    {
        std::lock_guard<std::mutex> lk(w.mu);
        if (!w.pool.empty()) {
            int fd = w.pool.back();
            w.pool.pop_back();
            return {fd, true};
        }
    }
    return {connectTo(w.addr, err), false};
}

void
Router::returnConn(Worker &w, int fd)
{
    std::lock_guard<std::mutex> lk(w.mu);
    if (w.pool.size() < size_t(opts_.poolConns)) {
        w.pool.push_back(fd);
        return;
    }
    ::close(fd);
}

bool
Router::exchange(size_t wi, const std::vector<uint8_t> &reqWire,
                 std::vector<uint8_t> *respWire)
{
    Worker &w = *workers_[wi];
    std::string err;
    auto attempt = [&](int fd) {
        if (!writeWire(fd, reqWire))
            return false;
        FrameKind kind;
        return readFrameWire(fd, respWire, &kind, &err,
                             opts_.verifyRelay) == FrameRead::Ok &&
               kind == FrameKind::Response;
    };
    auto [fd, pooled] = borrowConn(w, &err);
    if (fd >= 0) {
        if (attempt(fd)) {
            returnConn(w, fd);
            w.up.store(true, std::memory_order_relaxed);
            breakerSuccess(w);
            return true;
        }
        ::close(fd);
        if (pooled) {
            // The pooled fd may simply have been closed under us
            // (worker restart, idle timeout): one fresh retry
            // before declaring the worker down.
            fd = connectTo(w.addr, &err);
            if (fd >= 0) {
                if (attempt(fd)) {
                    returnConn(w, fd);
                    w.up.store(true, std::memory_order_relaxed);
                    breakerSuccess(w);
                    return true;
                }
                ::close(fd);
            }
        }
    }
    if (w.up.exchange(false, std::memory_order_relaxed))
        warn("cisa-router: worker %s down (%s)", w.addr.c_str(),
             err.c_str());
    breakerFailure(w);
    return false;
}

bool
Router::breakerAllow(Worker &w)
{
    int st = w.breaker.load(std::memory_order_relaxed);
    if (st == 0)
        return true;
    if (st == 1 &&
        steadyNowMs() >=
            w.openUntilMs.load(std::memory_order_relaxed)) {
        // Cooldown over: elect exactly one caller as the half-open
        // probe; the losers keep treating the breaker as open.
        int expect = 1;
        if (w.breaker.compare_exchange_strong(
                expect, 2, std::memory_order_relaxed)) {
            breakerProbes_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
Router::breakerSuccess(Worker &w)
{
    w.consecFails.store(0, std::memory_order_relaxed);
    int prev = w.breaker.exchange(0, std::memory_order_relaxed);
    if (prev != 0) {
        breakerRecoveries_.fetch_add(1, std::memory_order_relaxed);
        inform("cisa-router: breaker for %s closed",
               w.addr.c_str());
    }
}

void
Router::breakerFailure(Worker &w)
{
    int fails =
        w.consecFails.fetch_add(1, std::memory_order_relaxed) + 1;
    int st = w.breaker.load(std::memory_order_relaxed);
    if (st == 2) {
        // The half-open probe failed: straight back to open for
        // another cooldown.
        w.openUntilMs.store(steadyNowMs() + opts_.breakerCooldownMs,
                            std::memory_order_relaxed);
        w.breaker.store(1, std::memory_order_relaxed);
        return;
    }
    if (st == 0 && fails >= opts_.breakerFails) {
        w.openUntilMs.store(steadyNowMs() + opts_.breakerCooldownMs,
                            std::memory_order_relaxed);
        w.breaker.store(1, std::memory_order_relaxed);
        breakerTrips_.fetch_add(1, std::memory_order_relaxed);
        warn("cisa-router: breaker for %s open (%d consecutive "
             "failures)",
             w.addr.c_str(), fails);
    }
}

void
Router::forward(const Request &req, uint32_t deadline_ms,
                const std::vector<uint8_t> &reqWire,
                std::vector<uint8_t> *respWire)
{
    const int64_t arrivalMs = steadyNowMs();
    std::vector<size_t> owners =
        ring_.ownersOf(req.routingKey(), opts_.replicas);

    // Cacheable (slab-affine) requests rotate across the replica
    // set so a hot slab is served warm by R workers. Non-cacheable
    // requests have no warmth to preserve, so they round-robin over
    // the whole fleet instead of piling onto one hash-chosen
    // primary.
    std::vector<size_t> cand;
    cand.reserve(workers_.size());
    if (req.cacheable() && owners.size() > 1) {
        size_t start = rr_.fetch_add(1, std::memory_order_relaxed) %
                       owners.size();
        for (size_t i = 0; i < owners.size(); i++)
            cand.push_back(owners[(start + i) % owners.size()]);
    } else if (!req.cacheable() && workers_.size() > 1) {
        size_t start = rr_.fetch_add(1, std::memory_order_relaxed) %
                       workers_.size();
        for (size_t i = 0; i < workers_.size(); i++)
            cand.push_back((start + i) % workers_.size());
    } else {
        cand = owners;
    }
    // Failover tail: every remaining worker, so a request survives
    // as long as *any* worker lives (the shared slab store lets a
    // non-owner adopt the slab instead of diverging).
    for (size_t wi = 0; wi < workers_.size(); wi++) {
        if (std::find(cand.begin(), cand.end(), wi) == cand.end())
            cand.push_back(wi);
    }

    size_t firstChoice = cand[0];
    bool sawBusy = false;
    std::vector<uint8_t> busyWire, budgetWire;
    // Pass 0 trusts the up flags and the breakers; pass 1 retries
    // flagged-down/tripped workers in case the flag is stale and
    // nobody else answered (a breaker must never lose a request —
    // it only reorders who gets asked first).
    for (int pass = 0; pass < 2; pass++) {
        for (size_t wi : cand) {
            bool up = workers_[wi]->up.load(std::memory_order_relaxed);
            if (pass == 0 ? !up : up)
                continue;
            if (pass == 0 && !breakerAllow(*workers_[wi]))
                continue;
            // Deadline propagation: each attempt forwards only the
            // budget that remains after time already burned here; a
            // spent budget is shed before touching another worker.
            const std::vector<uint8_t> *wire = &reqWire;
            if (deadline_ms > 0) {
                int64_t elapsed = steadyNowMs() - arrivalMs;
                if (elapsed >= int64_t(deadline_ms)) {
                    deadlineShed_.fetch_add(
                        1, std::memory_order_relaxed);
                    ByteWriter w;
                    Response::fail(Status::Deadline,
                                   "budget spent in router")
                        .encode(w);
                    *respWire =
                        encodeFrame(FrameKind::Response, w.take());
                    return;
                }
                budgetWire = encodeFrame(
                    FrameKind::Request,
                    encodeRequestEnvelope(
                        req, deadline_ms - uint32_t(elapsed)));
                wire = &budgetWire;
            }
            if (!exchange(wi, *wire, respWire))
                continue;
            if (respWire->size() > kFrameHeaderBytes &&
                (*respWire)[kFrameHeaderBytes] ==
                    uint8_t(Status::Busy)) {
                // This worker is shedding load; give another
                // replica a chance, keep the BUSY answer in case
                // the whole fleet is saturated.
                sawBusy = true;
                busyWire = std::move(*respWire);
                continue;
            }
            if (wi != firstChoice)
                reroutes_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    if (sawBusy) {
        *respWire = std::move(busyWire);
        return;
    }
    ByteWriter w;
    Response::fail(Status::Error, "no worker reachable").encode(w);
    *respWire = encodeFrame(FrameKind::Response, w.take());
}

void
Router::healthLoop()
{
    const std::vector<uint8_t> pingWire = encodeFrame(
        FrameKind::Request,
        encodeRequestEnvelope(Request::ping(), 0));
    std::unique_lock<std::mutex> lk(healthMu_);
    for (;;) {
        healthCv_.wait_for(
            lk, std::chrono::milliseconds(opts_.healthMs));
        if (stopRequested_.load(std::memory_order_acquire))
            return;
        for (auto &wp : workers_) {
            Worker &w = *wp;
            if (w.up.load(std::memory_order_relaxed))
                continue; // request-path failures re-flag it
            lk.unlock();
            std::string err;
            int fd = connectTo(w.addr, &err);
            if (fd >= 0) {
                std::vector<uint8_t> resp;
                FrameKind kind;
                if (writeWire(fd, pingWire) &&
                    readFrameWire(fd, &resp, &kind, &err, true) ==
                        FrameRead::Ok &&
                    kind == FrameKind::Response) {
                    w.up.store(true, std::memory_order_relaxed);
                    breakerSuccess(w);
                    returnConn(w, fd);
                    inform("cisa-router: worker %s is back",
                           w.addr.c_str());
                } else {
                    ::close(fd);
                }
            }
            lk.lock();
        }
    }
}

StatsSnap
Router::fleetStats()
{
    const std::vector<uint8_t> statsWire = encodeFrame(
        FrameKind::Request,
        encodeRequestEnvelope(Request::stats(), 0));
    StatsSnap out{};
    for (size_t wi = 0; wi < workers_.size(); wi++) {
        // Don't block the stats path on a dead worker.
        if (!workers_[wi]->up.load(std::memory_order_relaxed))
            continue;
        std::vector<uint8_t> respWire;
        if (!exchange(wi, statsWire, &respWire))
            continue;
        ByteReader r(respWire.data() + kFrameHeaderBytes,
                     respWire.size() - kFrameHeaderBytes);
        Response resp;
        if (!Response::decode(r, &resp) ||
            resp.status != Status::Ok)
            continue;
        ByteReader br(resp.body);
        StatsSnap s;
        if (StatsSnap::decode(br, &s))
            out.merge(s);
    }
    // The router's own counters, and its fault counters (net.connect
    // etc. fire here too), join the roll-up the same way a worker's
    // do. Recount after the exchanges: one may have flipped a flag.
    StatsSnap self{};
    self.workersKnown = workers_.size();
    for (auto &w : workers_) {
        if (w->up.load(std::memory_order_relaxed))
            self.workersUp++;
        if (w->breaker.load(std::memory_order_relaxed) != 0)
            self.breakerOpenNow++;
    }
    self.reroutes = reroutes_.load(std::memory_order_relaxed);
    self.connsAccepted = connsAccepted_.load(std::memory_order_relaxed);
    self.connsRejected = connsRejected_.load(std::memory_order_relaxed);
    self.breakerTrips = breakerTrips_.load(std::memory_order_relaxed);
    self.breakerProbes = breakerProbes_.load(std::memory_order_relaxed);
    self.breakerRecoveries =
        breakerRecoveries_.load(std::memory_order_relaxed);
    self.deadlineShed = deadlineShed_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(connMu_);
        self.liveConns = connCount_;
    }
    self.faults = faultSnapshot();
    out.merge(self);
    if (opts_.statsAugment)
        opts_.statsAugment(out);
    return out;
}

} // namespace cisa
