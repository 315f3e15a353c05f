"""bvkit: executable real analysis on exact piecewise function models.

The toolkit computes total variation, Jordan decompositions, image
measures, null-family probes and recovered densities, and replays the
measure-theoretic arguments connecting them as numeric certificates with
explicit epsilon budgets.
"""

from .errors import (
    BVKitError,
    CertificateFailure,
    InfiniteSegmentationError,
    NotBVError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
    UnresolvedOscillationError,
)
from .intervals import Interval, IntervalSet
from .model import (
    CONSTANT,
    DECREASING,
    INCREASING,
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    MonotoneSegmentation,
    PolynomialPiece,
    Segment,
    XSinPiece,
    build_cantor_iterate,
    build_identity,
    build_zigzag,
    piecewise_linear,
)
from .variation import (
    Decomposition,
    UniformApprox,
    VariationEstimate,
    VariationFunction,
    jordan_decomposition,
    partition_sum,
    total_variation,
    uniform_approx,
    variation_function,
)
from .measure import (
    LusinReport,
    NullSetFamily,
    cantor_family,
    cover_image,
    image_measure,
    image_set,
    inflate,
    lusin_probe,
    shrinking_family,
    split_cover_at,
)
from .certificate import (
    CertificateTrace,
    LedgerEntry,
    ShiftTrace,
    lusin_propagation_check,
    shift_certificate,
    variation_certificate,
)
from .density import (
    DensityGrid,
    ModulusReport,
    ReconstructionReport,
    ac_modulus,
    bv_density,
    density_grid,
    integrate,
    monotone_density,
    reconstruction_error,
    shifted_monotone_density,
)
from .corpus import (
    CorpusConfig,
    CorpusEntry,
    EquivalenceTable,
    build_mixed,
    build_oscillation,
    default_corpus,
    run_corpus,
)
from .plots import emit_plots, write_report

__version__ = "0.1.0"
