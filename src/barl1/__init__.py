"""Exact workbench for bar complexes of discrete groups: chain-level
products, l1-minimal fillings with certificates, uniform boundary
constants, and mitosis pipelines, all in rational arithmetic."""

__version__ = "0.1.0"

from .groups import (DirectProduct, FiniteTableGroup, FreeGroup, FreeProduct,
                     GroupAxiomError, Homomorphism, HomomorphismError,
                     PermutationGroup, SemidirectProduct, build_hom,
                     check_axioms, compose_homs, conjugation, cyclic_group,
                     diagonal_hom, identity_hom, is_abelian,
                     symmetric_group_perm, verify_hom)
from .barcomplex import (Chain, Cochain, DEFAULT_SIZE_CAP, SizeCapError,
                         betti, boundary, boundary_matrix, coboundary,
                         is_cycle, kronecker, l1_norm, push_chain)
from .products import (TensorChain, aw, cross_chain, cross_cochain,
                       cross_tensor, cup, normalize, pair_compat_check,
                       tensor_boundary, xi_fill)
from .l1opt import (FillCertificate, Infeasible, LpProblem, SupportExhausted,
                    UbcConstant, fill_min, is_boundary, lp_solve,
                    ubc_kappa_exact)
from .mitosis import (MitosisData, MitosisError, PipelineCertificate,
                      PipelineConfig, PipelineError, constant_c, dmap, e_bound,
                      emap, mitosis_of_finite_abelian, mu_hom,
                      primitive_pipeline, theta, theta_defect, tower,
                      verify_mitosis)
from .fileio import build_group, group_to_spec
