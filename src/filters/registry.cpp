#include "filters/registry.hpp"

#include "filters/input_filters.hpp"
#include "filters/texture_filters.hpp"

namespace h4d::filters {

fs::FilterRegistry make_pipeline_registry(ParamsPtr params,
                                          std::filesystem::path output_dir,
                                          std::shared_ptr<CollectedResults> collected) {
  fs::FilterRegistry reg;
  reg.register_type("rfr", [params] { return std::make_unique<RawFileReader>(params); });
  reg.register_type("iic",
                    [params] { return std::make_unique<InputImageConstructor>(params); });
  reg.register_type("hmp",
                    [params] { return std::make_unique<HaralickMatrixProducer>(params); });
  reg.register_type("hcc",
                    [params] { return std::make_unique<HaralickCoMatrixCalculator>(params); });
  reg.register_type("hpc",
                    [params] { return std::make_unique<HaralickParameterCalculator>(params); });
  reg.register_type("uso", [params, output_dir] {
    return std::make_unique<UnstitchedOutput>(params, output_dir);
  });
  reg.register_type("hic",
                    [params] { return std::make_unique<HaralickImageConstructor>(params); });
  if (collected) {
    reg.register_type("collector",
                      [params, collected] { return std::make_unique<ResultCollector>(params, collected); });
  }
  return reg;
}

}  // namespace h4d::filters
