// Historical home of the simulation driver, now sim::SerialEngine
// (sim/serial_engine.h). `Runner` remains as an alias so existing call
// sites keep compiling.
#pragma once

#include "sim/serial_engine.h"

namespace dds::sim {

using Runner = SerialEngine;

}  // namespace dds::sim
