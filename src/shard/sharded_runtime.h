// Compatibility shim for the serving benchmark (servebench/), which is
// frozen until its next revision and still names these types.  The shard
// fabric is a stage of api::Runtime now (RuntimeConfig::shards; see
// shard/fabric.h): ShardedRuntime is nothing but a Runtime built from the
// old config shape.  Every other caller uses api::Runtime directly.  This
// header is removed when the benchmark is next revised.
#pragma once

#include <cstddef>

#include "api/runtime.h"

namespace flexcore::api {

struct ShardedRuntimeConfig {
  std::size_t shards = 2;
  std::size_t threads_per_shard = 0;
  RuntimeConfig runtime;
};

class ShardedRuntime : public Runtime {
 public:
  explicit ShardedRuntime(const ShardedRuntimeConfig& cfg)
      : Runtime([&cfg] {
          RuntimeConfig rcfg = cfg.runtime;
          rcfg.shards = cfg.shards;
          rcfg.threads_per_shard = cfg.threads_per_shard;
          return rcfg;
        }()) {}

  Runtime& runtime() noexcept { return *this; }
};

}  // namespace flexcore::api
