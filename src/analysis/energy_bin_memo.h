// Per-call memo of a photon energy's bin, for the routines that bin
// photons by log energy (histogram, spectrogram).
//
// A raw unit stores energies quantized to 0.1 keV, so a window of 200k
// photons holds a few thousand distinct floats, most of them rare. The
// memo computes a float's bin once and returns it again on a repeat,
// which replaces a std::log per photon with a table lookup. It is
// direct-mapped and keyed by the float's bits: a hit returns exactly
// what the caller's bin function returned for that float, so the memo
// cannot change a product. A memo serves one Run call (the IDL servers
// run routines concurrently), and a collision only costs a recomputation.
#ifndef HEDC_ANALYSIS_ENERGY_BIN_MEMO_H_
#define HEDC_ANALYSIS_ENERGY_BIN_MEMO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hedc::analysis {

class EnergyBinMemo {
 public:
  static constexpr int kSlotBits = 12;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;

  // The slot `energy` maps to; two energies with one slot evict each other.
  static size_t Slot(float energy) {
    return (std::bit_cast<uint32_t>(energy) * 2654435761u) >>
           (32 - kSlotBits);
  }

  EnergyBinMemo() : slots_(kSlots, Entry{kEmpty, 0}) {}

  // bin_of(energy), computed on the first call for these bits and looked
  // up after that until another energy takes the slot. `energy` is not
  // NaN (a window never selects one), and bins fit in 32 bits.
  template <typename BinOf>
  uint32_t Bin(float energy, const BinOf& bin_of) {
    const uint32_t key = std::bit_cast<uint32_t>(energy);
    Entry& entry = slots_[Slot(energy)];
    if (entry.key != key) {
      entry.key = key;
      entry.bin = static_cast<uint32_t>(bin_of(energy));
    }
    return entry.bin;
  }

 private:
  struct Entry {
    uint32_t key;
    uint32_t bin;
  };
  // The bits of a NaN: no selected photon has them.
  static constexpr uint32_t kEmpty = 0xffffffffu;

  std::vector<Entry> slots_;
};

}  // namespace hedc::analysis

#endif  // HEDC_ANALYSIS_ENERGY_BIN_MEMO_H_
