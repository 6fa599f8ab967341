// Registry of the pipeline's filter types for XML network descriptions.
#pragma once

#include <filesystem>

#include "filters/output_filters.hpp"
#include "filters/params.hpp"
#include "fs/netdesc.hpp"

namespace h4d::filters {

/// Registers the pipeline's filter types — "rfr", "iic", "hmp", "hcc",
/// "hpc", "uso", "hic" — plus "collector" when `collected` is given. USO
/// writes under `output_dir` (accounting-only when empty). The paper's JIW is
/// not a filter here: images are written from the collected maps.
fs::FilterRegistry make_pipeline_registry(
    ParamsPtr params, std::filesystem::path output_dir = {},
    std::shared_ptr<CollectedResults> collected = {});

}  // namespace h4d::filters
