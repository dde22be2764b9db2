// Shared scaffolding for the experiment binaries: builds the paper-scale
// pipeline + click dataset and prints the dataset's summary line.
#ifndef CKR_BENCH_BENCH_COMMON_H_
#define CKR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/dataset.h"
#include "core/pipeline.h"

namespace ckr_bench {

struct Lab {
  std::unique_ptr<ckr::Pipeline> pipeline;
  ckr::ClickDataset dataset;
};

/// Builds the default (paper-scale) world and dataset; exits on failure.
inline Lab BuildLab() {
  ckr::PipelineConfig config;
  auto pipeline_or = ckr::Pipeline::Build(config);
  if (!pipeline_or.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 pipeline_or.status().ToString().c_str());
    std::exit(1);
  }
  Lab lab;
  lab.pipeline = std::move(*pipeline_or);
  ckr::DatasetBuilder builder(*lab.pipeline, ckr::DatasetConfig{});
  auto dataset_or = builder.Build();
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset_or.status().ToString().c_str());
    std::exit(1);
  }
  lab.dataset = std::move(*dataset_or);
  return lab;
}

inline void PrintDatasetHeader(const Lab& lab) {
  const ckr::ClickDataset& ds = lab.dataset;
  std::printf("dataset: %zu stories survive cleaning (paper: 870), "
              "%zu windows (paper: 947), %zu concept instances (paper: "
              "6420), %llu sampled clicks (paper: 16549)\n\n",
              ds.surviving_stories.size(), ds.num_windows,
              ds.instances.size(),
              static_cast<unsigned long long>(ds.total_clicks));
}

}  // namespace ckr_bench

#endif  // CKR_BENCH_BENCH_COMMON_H_
