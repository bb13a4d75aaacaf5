"""Exact equivariant (co)homology of finite simplicial complexes with an
order-two involution, Galois-Maximality reports, and the closed-form
classifier for real Enriques surfaces."""

from .complexes import (
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    Coeff,
    GComplex,
    GMap,
    barycentric_subdivide,
    builtin,
    chain_complex,
    disjoint_union,
    fixed_subcomplex,
    load_complex,
    make_complex,
    make_gmap,
    validate,
)
from .enriques import (
    ClassifierOutput,
    EnriquesType,
    SurfaceComponent,
    brauer_group,
    classify,
    enumerate_types,
    gm_status,
    h1_dims,
    make_type,
)
from .equivariant import (
    EqClass,
    cap_with_eta,
    edge_morphism,
    edge_morphism_cohomology,
    eq_cohomology,
    eq_homology,
    equivariant_degree,
    eta_cap,
    fundamental_class,
    group_cohomology,
    homology,
    les_coeff,
    les_edge,
    localize_cohomology,
    localize_homology,
    pushforward,
    represented_class,
)
from .intlinalg import (
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    SNFDecomposition,
    homology_at,
    induced_hom,
    smith_normal_form,
)
from .spectral import (
    E2Page,
    GMReport,
    e2_page,
    edge_defect_witness,
    gm_report,
    poincare_check,
    rho_surjectivity_criteria,
)
