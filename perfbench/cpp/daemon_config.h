// The falkon-dispatcher daemon's default configuration
// (tools/falkon_dispatcher.cpp with no --config), shared by the benchmark's
// dispatcher host and its in-process replay so both run the same dispatcher.
#pragma once

#include "core/dispatcher.h"

namespace perfbench {

inline falkon::core::DispatcherConfig daemon_dispatcher_config() {
  falkon::core::DispatcherConfig config;
  config.piggyback = true;
  config.replay.max_retries = 3;
  config.replay.response_timeout_s = 0.0;
  config.notify_threads = 4;
  config.max_tasks_per_dispatch = 1;
  return config;
}

}  // namespace perfbench
