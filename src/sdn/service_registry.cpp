#include "sdn/service_registry.hpp"

namespace tedge::sdn {

const AnnotatedService& ServiceRegistry::store(const net::ServiceAddress& address,
                                               AnnotatedService service) {
    Entry& entry = services_[address];
    const std::string& old_name = entry.service.spec.name;
    if (!old_name.empty() && old_name != service.spec.name) {
        // Re-registration under a new name: drop the old index entry.
        const auto it = by_name_.find(old_name);
        if (it != by_name_.end() && it->second == address) by_name_.erase(it);
    }
    entry.service = std::move(service);
    entry.flow_keys = {};
    by_name_[entry.service.spec.name] = address;
    return entry.service;
}

void ServiceRegistry::register_service(const net::ServiceAddress& address,
                                       AnnotatedService service) {
    store(address, std::move(service));
}

const AnnotatedService&
ServiceRegistry::register_yaml(const net::ServiceAddress& address,
                               const std::string& yaml_text,
                               const Annotator& annotator) {
    return store(address, annotator.annotate(yaml_text, address));
}

const AnnotatedService*
ServiceRegistry::lookup(const net::ServiceAddress& address) const {
    const auto it = services_.find(address);
    return it == services_.end() ? nullptr : &it->second.service;
}

ServiceRegistry::Entry* ServiceRegistry::find(const net::ServiceAddress& address) {
    const auto it = services_.find(address);
    return it == services_.end() ? nullptr : &it->second;
}

const AnnotatedService* ServiceRegistry::find_by_name(std::string_view name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return nullptr;
    return lookup(it->second);
}

bool ServiceRegistry::contains(const net::ServiceAddress& address) const {
    return services_.contains(address);
}

bool ServiceRegistry::unregister(const net::ServiceAddress& address) {
    const auto it = services_.find(address);
    if (it == services_.end()) return false;
    const auto name_it = by_name_.find(it->second.service.spec.name);
    if (name_it != by_name_.end() && name_it->second == address) {
        by_name_.erase(name_it);
    }
    services_.erase(it);
    return true;
}

std::vector<net::ServiceAddress> ServiceRegistry::addresses() const {
    std::vector<net::ServiceAddress> out;
    out.reserve(services_.size());
    for (const auto& [address, service] : services_) out.push_back(address);
    return out;
}

} // namespace tedge::sdn
