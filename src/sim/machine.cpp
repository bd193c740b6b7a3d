#include "sim/machine.h"

namespace mp::sim {

MachineModel sequent_s81(int procs) {
  MachineModel m;
  m.name = "sequent-s81";
  m.num_procs = procs;
  m.mips = 4.0;              // 16 MHz 80386, ~4 cycles/instruction effective
  m.bus_bytes_per_us = 25.0; // measured max ~25 MB/s (section 6)
  m.lock_op_instr = 85.0;    // pair ~46 us at 4 MIPS incl. bus transactions
  m.tas_bus_bytes = 4.0;
  m.hardware_lock_bus = false;
  return m;
}

MachineModel sgi_4d380(int procs) {
  MachineModel m;
  m.name = "sgi-4d380s";
  m.num_procs = procs;
  m.mips = 20.0;             // 33 MHz R3000: much faster processors...
  m.bus_bytes_per_us = 30.0; // ...but only slightly larger bus bandwidth
  m.lock_op_instr = 58.0;    // pair ~6 us at 20 MIPS
  m.tas_bus_bytes = 0.0;     // lock memory and bus are separate hardware
  m.hardware_lock_bus = true;
  return m;
}

MachineModel luna88k(int procs) {
  MachineModel m;
  m.name = "luna88k";
  m.num_procs = procs;
  m.mips = 12.0;  // 25 MHz 88100
  m.bus_bytes_per_us = 20.0;
  m.lock_op_instr = 70.0;  // xmem atomic exchange on ordinary memory
  m.tas_bus_bytes = 4.0;
  m.hardware_lock_bus = false;
  return m;
}

MachineModel uniprocessor() {
  MachineModel m;
  m.name = "uniprocessor";
  m.num_procs = 1;
  m.mips = 4.0;
  m.bus_bytes_per_us = 25.0;
  return m;
}

}  // namespace mp::sim
