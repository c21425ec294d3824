// Drives an endpoint handler directly, without TcpNet: each call wraps a
// callback in a reply handle whose answer comes back to that callback.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "net/tcp.hpp"

namespace tedge::testkit {

class ReplyCallbacks final : public net::ReplySink {
public:
    net::EndpointDirectory::ReplyFn
    operator()(std::function<void(sim::Bytes)> callback) {
        callbacks_.push_back(std::move(callback));
        return {*this, callbacks_.size() - 1};
    }

private:
    void reply(std::uint64_t token, sim::Bytes response_size) override {
        callbacks_.at(token)(response_size);
    }

    std::deque<std::function<void(sim::Bytes)>> callbacks_;
};

} // namespace tedge::testkit
