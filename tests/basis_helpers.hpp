// Test helper for driving a basis store directly, without the GL-P engine.
#pragma once

#include "basis/basis_store.hpp"

namespace gbd {

/// Start an AddToSet round of one add; poll add_done() for its acks.
inline PolyId add_one(BasisStore& basis, Polynomial poly) {
  basis.add_open();
  PolyId id = basis.add_push(std::move(poly));
  basis.add_close();
  return id;
}

}  // namespace gbd
