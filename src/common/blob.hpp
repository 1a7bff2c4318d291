// Blob: the bytes of one stored object — what the codec encodes, the cold
// tier and function memory hold, and workloads decode.
#pragma once

#include <cstdint>
#include <vector>

namespace flstore {

using Blob = std::vector<std::uint8_t>;

}  // namespace flstore
