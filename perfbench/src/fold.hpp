#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-layer span.<layer>.{calls,total_s,self_s} for each named layer
/// (zeros for a layer with no spans in the trace).
Metrics fold_trace(const std::string& path,
                   const std::vector<std::string>& layers);

}  // namespace perfbench
