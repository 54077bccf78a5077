/// \file real_transform.hpp
/// \brief Lemma 3.2 of the paper: the unitary block transform
/// `T_i = (1/sqrt(2)) [I, -jI; I, jI]` that turns the conjugate-paired
/// complex Loewner data into real matrices, so the recovered descriptor
/// model has real (E, A, B, C).

#pragma once

#include "loewner/matrices.hpp"
#include "loewner/tangential.hpp"

namespace mfti::loewner {

/// The real-transformed Loewner pencil and port matrices. With
/// conjugate-paired data all four matrices are exactly real (up to
/// rounding); the transform asserts this.
struct RealLoewnerPencil {
  Mat loewner;  ///< T_L^* LL T_R      (Kl x Kr)
  Mat shifted;  ///< T_L^* sLL T_R     (Kl x Kr)
  Mat v;        ///< T_L^* V           (Kl x m)
  Mat w;        ///< W T_R             (p x Kr)
};

/// Unitary pair transform for one side: block-diagonal over conjugate
/// pairs, each block `(1/sqrt(2)) [I_t, -j I_t; I_t, j I_t]`.
/// `pair_t` lists the width t of each pair (the block is 2t x 2t).
/// `real_transform` never forms this matrix; the dense product with it is
/// the test oracle for the pair sums there.
CMat pair_transform(const std::vector<std::size_t>& pair_t);

/// Apply Lemma 3.2 to tangential data and its Loewner pair. T_L^* and T_R
/// have two nonzeros per row, so every entry is a sum of two products
/// (O(Kl Kr) work instead of dense O(K^3) products); the sums follow the
/// dense product's order, so the result is bitwise
/// `pair_transform(left_t)^* LL pair_transform(right_t)` (and likewise for
/// sLL, V and W) unless the compiler contracts them to FMA.
/// \throws std::invalid_argument if the result is not numerically real
/// (i.e. the data violates conjugate symmetry).
RealLoewnerPencil real_transform(const TangentialData& d, const CMat& loewner,
                                 const CMat& shifted, Real tol = 1e-8);

/// Convenience overload that builds the Loewner pair internally.
RealLoewnerPencil real_transform(const TangentialData& d, Real tol = 1e-8);

}  // namespace mfti::loewner
