#include "core/emorphic.hpp"

namespace emorphic {

const char* version() { return "emorphic 1.0.0 (DAC'25 reproduction)"; }

}  // namespace emorphic
