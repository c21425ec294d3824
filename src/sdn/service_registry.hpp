// Registry of edge services. Services are registered with the mobile edge
// platform provider by their unique combination of domain IP address and
// port number (paper §II); the SDN controller intercepts exactly these
// addresses at the network ingress.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "sdn/annotator.hpp"
#include "simcore/symbol_table.hpp"

namespace tedge::sdn {

class FlowMemory;

/// The ids a packet-in keys a registered service by, resolved against one
/// FlowMemory by the Dispatcher at the service's first packet-in.
struct ServiceFlowKeys {
    const FlowMemory* memory = nullptr;  ///< whose ids these are; null until resolved
    sim::SymbolId service = sim::kInvalidSymbol;  ///< the service's name
    std::uint32_t address = 0;                    ///< the registered address
    std::uint64_t cookie = 0;                     ///< cookie of its steering entries
};

class ServiceRegistry {
public:
    /// A registered service and its packet-in keys. Registering anything at
    /// the address resets the keys, so they never outlive the name they were
    /// resolved from.
    struct Entry {
        AnnotatedService service;
        ServiceFlowKeys flow_keys;
    };

    /// Register (or replace) a service under its cloud address.
    void register_service(const net::ServiceAddress& address,
                          AnnotatedService service);

    /// Convenience: annotate `yaml_text` with `annotator` and register it.
    const AnnotatedService& register_yaml(const net::ServiceAddress& address,
                                          const std::string& yaml_text,
                                          const Annotator& annotator);

    [[nodiscard]] const AnnotatedService* lookup(const net::ServiceAddress& address) const;
    /// The entry registered at `address`, keys included, or null.
    [[nodiscard]] Entry* find(const net::ServiceAddress& address);

    /// O(1) through the maintained name index; accepts string_view so hot
    /// callers do not build a temporary std::string.
    [[nodiscard]] const AnnotatedService* find_by_name(std::string_view name) const;
    [[nodiscard]] bool contains(const net::ServiceAddress& address) const;
    bool unregister(const net::ServiceAddress& address);

    [[nodiscard]] std::size_t size() const { return services_.size(); }
    [[nodiscard]] std::vector<net::ServiceAddress> addresses() const;

private:
    const AnnotatedService& store(const net::ServiceAddress& address,
                                  AnnotatedService service);

    std::unordered_map<net::ServiceAddress, Entry> services_;
    /// Annotated names are worldwide-unique, so name -> address is a
    /// bijection onto the registered services (heterogeneous lookup).
    std::unordered_map<std::string, net::ServiceAddress, sim::StringHash,
                       std::equal_to<>>
        by_name_;
};

} // namespace tedge::sdn
