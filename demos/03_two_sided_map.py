"""Render the two-sided disk map of the bundled coastline fixture.

Produces three SVGs next to this script: the map in both projection modes
and the radial-profile plot, plus a per-latitude distortion table.
"""

from pathlib import Path

from flatdisk import geo_render as gr
from flatdisk import projection as pj
from flatdisk.projection import ProjectionMode

HERE = Path(__file__).parent
FIXTURE = HERE.parent / "tests" / "data" / "fixture_coastline.geojson"

lines = gr.load_geojson(FIXTURE)
print(f"loaded {len(lines)} polylines from {FIXTURE.name}")

for mode in ProjectionMode:
    doc = gr.render_map(lines, mode, graticule_deg=15, size_px=400,
                        source=FIXTURE.name)
    out = HERE / f"map_{mode.value}.svg"
    doc.save(out)
    print(f"wrote {out}")

doc = gr.render_profile_plot(600)
doc.save(HERE / "radial_profile.svg")
print(f"wrote {HERE / 'radial_profile.svg'}")

print()
print("local scale factors (stress-minimal mode):")
print(f"{'lat':>5} {'meridian':>10} {'parallel':>10} {'area':>10}")
for lat in (90, 60, 30, 0):
    m, p, a = pj.scale_factors(lat, ProjectionMode.STRESS_MINIMAL)
    print(f"{lat:>5} {m:>10.6f} {p:>10.6f} {a:>10.6f}")
print("note the isotropy at the pole and the unit meridian scale at the rim.")
