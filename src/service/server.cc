#include "service/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "service/address.hh"
#include "service/frame.hh"

namespace cisa
{

Server::Server(const Options &opts)
    : addr_(opts.address.empty() ? serveSocketPath() : opts.address),
      backlog_(opts.backlog > 0 ? opts.backlog : serveBacklog()),
      maxConns_(size_t(opts.maxConns > 0 ? opts.maxConns
                                         : serveMaxConns())),
      exec_(std::make_unique<Executor>(opts.exec)),
      wireCap_(size_t(serveCacheEntries()))
{}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *err)
{
    panic_if(started_, "server started twice");
    listenFd_ = listenOn(addr_, backlog_, &bound_, err);
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
    inform("cisa-serve listening on %s", bound_.c_str());
    return true;
}

void
Server::requestStop()
{
    // Async-signal-safe: one atomic store and one write().
    stopRequested_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        char b = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
    }
}

void
Server::waitUntilStopped()
{
    if (!started_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    stop();
}

void
Server::stop()
{
    if (!started_ || stopped_.exchange(true))
        return;

    // 1. Stop accepting new connections.
    requestStop();
    if (acceptor_.joinable())
        acceptor_.join();

    // 2. Drain queued and in-flight work; connection threads keep
    //    answering (new submissions get BUSY) until clients see
    //    their final responses.
    exec_->drain();

    // 3. Unblock readers stuck waiting for client traffic, then
    //    wait for every connection thread to finish. SHUT_RD only:
    //    a connection thread that just finished a drained job must
    //    still be able to write that final response (each thread
    //    closes its own fd on the way out).
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
    inform("cisa-serve stopped (%s)", bound_.c_str());
}

void
Server::acceptLoop()
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
            warn("cisa-serve accept poll: %s", std::strerror(errno));
            return;
        }
        if (fds[1].revents || stopRequested_.load(std::memory_order_acquire))
            return;
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            warn("cisa-serve accept: %s", std::strerror(errno));
            continue;
        }
        if (faultHit(FaultSite::NetAccept)) {
            // Injected ECONNABORTED: the connection dies before a
            // thread is spawned, as if the peer hung up in the
            // backlog. The client's retry policy must absorb it.
            ::close(fd);
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
            // Shed load without spawning a thread: one BUSY frame
            // tells the client this is backpressure, not a crash.
            exec_->metrics().connRejected();
            ByteWriter w;
            Response::fail(Status::Busy, "connection limit")
                .encode(w);
            writeFrame(fd, FrameKind::Response, w.take());
            ::close(fd);
            continue;
        }
        exec_->metrics().connAccepted();
        std::thread([this, fd] { serveConnection(fd); }).detach();
    }
}

void
Server::serveConnection(int fd)
{
    serveFrames(fd);
    // Closing here (not at stop()) both signals EOF to the client
    // promptly and keeps a long-lived daemon's connection state
    // bounded by the number of *live* clients.
    exec_->metrics().connClosed();
    std::lock_guard<std::mutex> lk(connMu_);
    connFds_.erase(fd);
    ::close(fd);
    connCount_--;
    connCv_.notify_all();
}

std::shared_ptr<const std::vector<uint8_t>>
Server::cachedWire(uint64_t key)
{
    std::lock_guard<std::mutex> lk(wireMu_);
    auto it = wireIdx_.find(key);
    if (it == wireIdx_.end())
        return nullptr;
    wire_.splice(wire_.begin(), wire_, it->second);
    return it->second->second;
}

void
Server::cacheWire(uint64_t key, WirePtr wire)
{
    std::lock_guard<std::mutex> lk(wireMu_);
    auto it = wireIdx_.find(key);
    if (it != wireIdx_.end()) {
        // A concurrent miss already filled it (same bytes — the
        // fingerprint is exact and responses are deterministic).
        wire_.splice(wire_.begin(), wire_, it->second);
        return;
    }
    wire_.emplace_front(key, std::move(wire));
    wireIdx_[key] = wire_.begin();
    while (wire_.size() > wireCap_) {
        wireIdx_.erase(wire_.back().first);
        wire_.pop_back();
    }
}

void
Server::serveFrames(int fd)
{
    for (;;) {
        Frame frame;
        std::string err;
        FrameRead fr = readFrame(fd, &frame, &err);
        if (fr == FrameRead::Eof)
            return;
        if (fr == FrameRead::Bad) {
            // Framing is no longer trustworthy: answer once, close.
            ByteWriter w;
            Response::fail(Status::BadRequest, err).encode(w);
            writeFrame(fd, FrameKind::Response, w.take());
            return;
        }

        Request req;
        uint32_t deadline_ms = 0;
        bool haveReq = false;
        Response resp;
        if (frame.kind != FrameKind::Request) {
            resp = Response::fail(Status::BadRequest,
                                  "expected a request frame");
        } else if (!decodeRequestEnvelope(frame.payload, &req,
                                          &deadline_ms, &err)) {
            resp = Response::fail(Status::BadRequest, err);
        } else {
            haveReq = true;
        }
        if (!haveReq) {
            ByteWriter w;
            resp.encode(w);
            if (!writeFrame(fd, FrameKind::Response, w.take()))
                return;
            continue;
        }

        EndpointMetrics &m = exec_->metrics().at(req.type);
        m.bytesIn.fetch_add(kFrameHeaderBytes + frame.payload.size(),
                            std::memory_order_relaxed);

        // Wire-cache fast path: answer a repeat cacheable request
        // with the previously encoded response frame, skipping the
        // executor round-trip and the checksum pass. Bypassed while
        // draining so shutdown-time submissions still see BUSY.
        uint64_t key = 0;
        bool mayCache = req.cacheable() && wireCap_ > 0 &&
                        !exec_->draining();
        if (mayCache) {
            auto start = std::chrono::steady_clock::now();
            key = req.fingerprint();
            if (WirePtr hit = cachedWire(key)) {
                m.requests.fetch_add(1, std::memory_order_relaxed);
                m.ok.fetch_add(1, std::memory_order_relaxed);
                m.cacheHits.fetch_add(1, std::memory_order_relaxed);
                m.bytesOut.fetch_add(hit->size(),
                                     std::memory_order_relaxed);
                m.addLatencySince(start);
                if (!writeWire(fd, *hit))
                    return;
                continue;
            }
        }

        resp = exec_->call(req, deadline_ms);
        ByteWriter w;
        resp.encode(w);
        auto out = std::make_shared<const std::vector<uint8_t>>(
            encodeFrame(FrameKind::Response, w.take()));
        if (mayCache && resp.status == Status::Ok && !resp.stale)
            cacheWire(key, out);
        m.bytesOut.fetch_add(out->size(), std::memory_order_relaxed);
        if (!writeWire(fd, *out))
            return;
    }
}

} // namespace cisa
