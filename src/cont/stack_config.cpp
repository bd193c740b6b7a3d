#include "cont/stack_config.h"

#include "arch/panic.h"

namespace mp::cont {

void StackConfig::validate() const {
  MPNJ_CHECK(small_stack_bytes >= 8 * 1024,
             "stack config: small stack class below the 8 KiB minimum");
  MPNJ_CHECK(large_stack_bytes >= small_stack_bytes,
             "stack config: large stack class smaller than the small class");
  MPNJ_CHECK(large_stack_bytes <= (std::size_t{256} << 20),
             "stack config: stack class above the 256 MiB ceiling");
  MPNJ_CHECK(guard_pages <= 64,
             "stack config: more than 64 guard pages per slot");
  MPNJ_CHECK(slots_per_arena >= 8,
             "stack config: fewer than 8 slots per arena");
  MPNJ_CHECK(slots_per_arena <= (std::size_t{1} << 20),
             "stack config: more than 2^20 slots per arena");
  MPNJ_CHECK(cache_slots_per_proc <= 4096,
             "stack config: per-proc slot cache above the 4096 cap");
}

}  // namespace mp::cont
