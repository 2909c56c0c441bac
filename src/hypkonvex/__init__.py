"""Hyperbolic geometry of plane symmetric convex bodies.

Support functions of symmetric bodies are vectors of a Lorentzian function
space; area-pi bodies form an infinite-dimensional hyperboloid on which
PSL2(R) acts by isometries, the area-pi ellipses are the orbit of the disc,
and segment directions make up the limit set at infinity.  The package
provides the sampled function type with exact shape tags, the area form and
hyperbolic distance, the group action with its elliptic-integral distance
kernels, the boundary visual metric with its dimension estimators, and a
verification harness binding the identities and inequalities into suites.
Each name is imported from its module, as in
``from hypkonvex.lorentz import hyper_dist``.
"""
