"""Anti-rectangular bands: the order-quadrupling tower, its morphisms,
decompositions, and exhaustive model search."""
