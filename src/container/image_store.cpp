#include "container/image_store.hpp"

#include <stdexcept>

namespace tedge::container {

bool ImageStore::has_layer(const std::string& digest) const {
    return layers_.contains(digest);
}

void ImageStore::add_layer(const Layer& layer) {
    const auto [it, inserted] = layers_.emplace(layer.digest, layer.size);
    if (inserted) disk_usage_ += layer.size;
}

std::vector<Layer> ImageStore::missing_layers(const Image& image) const {
    std::vector<Layer> missing;
    for (const auto& layer : image.layers) {
        if (!has_layer(layer.digest)) missing.push_back(layer);
    }
    return missing;
}

bool ImageStore::has_image(const ImageRef& ref) const {
    const auto it = images_.find(ref);
    if (it == images_.end()) return false;
    for (const auto& layer : it->second.layers) {
        if (!has_layer(layer.digest)) return false;
    }
    return true;
}

void ImageStore::tag_image(const Image& image) {
    for (const auto& layer : image.layers) {
        if (!has_layer(layer.digest)) {
            throw std::logic_error("tag_image: missing layer " + layer.digest);
        }
    }
    images_[image.ref] = image;
}

const Image* ImageStore::find_image(const ImageRef& ref) const {
    const auto it = images_.find(ref);
    return it == images_.end() ? nullptr : &it->second;
}

bool ImageStore::remove_image(const ImageRef& ref) {
    return images_.erase(ref) > 0;
}

sim::Bytes ImageStore::gc() {
    std::unordered_set<std::string> referenced;
    for (const auto& [ref, image] : images_) {
        for (const auto& layer : image.layers) referenced.insert(layer.digest);
    }
    sim::Bytes freed = 0;
    for (auto it = layers_.begin(); it != layers_.end();) {
        if (!referenced.contains(it->first)) {
            freed += it->second;
            disk_usage_ -= it->second;
            it = layers_.erase(it);
        } else {
            ++it;
        }
    }
    return freed;
}

} // namespace tedge::container
