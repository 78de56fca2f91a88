#include "sim/packet.hpp"

#include <sys/mman.h>

namespace pnet::sim {

Packet* PacketPool::map_slab() {
  void* slab = mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (slab == MAP_FAILED) throw std::bad_alloc();
  return static_cast<Packet*>(slab);
}

void PacketPool::SlabUnmap::operator()(Packet* slab) const {
  munmap(slab, kSlabBytes);
}

}  // namespace pnet::sim
