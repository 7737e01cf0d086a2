"""homsim: joint spectral amplitude and Hong-Ou-Mandel dip simulator
for a degenerate photon-pair source pumped by two non-degenerate pulses
in a dispersion-shifted fiber.  Each public name lives in one of the modules
imported below and is reached through it, as ``homsim.hom.dip_curve``.
"""

__version__ = "0.1.0"

from . import fitdata, hom, imperfections, jsa, quadrature, units  # noqa: F401,E402
