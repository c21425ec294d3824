// Node-local content-addressed image store (the containerd content store).
//
// Layers are shared across images: deleting an image only frees layers no
// other tagged image references (paper §IV-C: "Even if a container image is
// deleted, some of its layers may be used by other images").
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "container/image.hpp"

namespace tedge::container {

class ImageStore {
public:
    /// True iff the layer blob is present locally.
    [[nodiscard]] bool has_layer(const std::string& digest) const;

    /// Add a layer blob (idempotent).
    void add_layer(const Layer& layer);

    /// Layers of `image` not yet present locally, in image order.
    [[nodiscard]] std::vector<Layer> missing_layers(const Image& image) const;

    /// True iff the image is tagged (a tagged image has all its layers).
    [[nodiscard]] bool has_image(const ImageRef& ref) const;

    /// Record the image manifest locally (after a successful pull).
    /// All layers must already be present.
    void tag_image(const Image& image);

    [[nodiscard]] const Image* find_image(const ImageRef& ref) const;

    /// Untag an image. Its layers stay until gc().
    /// Returns true if the image was tagged.
    bool remove_image(const ImageRef& ref);

    /// Delete layer blobs referenced by no tagged image.
    /// Returns bytes freed.
    sim::Bytes gc();

    [[nodiscard]] sim::Bytes disk_usage() const { return disk_usage_; }
    [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
    [[nodiscard]] std::size_t image_count() const { return images_.size(); }

private:
    std::unordered_map<std::string, sim::Bytes> layers_;  ///< digest -> size
    std::map<ImageRef, Image> images_;                    ///< ref -> manifest
    sim::Bytes disk_usage_ = 0;
};

} // namespace tedge::container
