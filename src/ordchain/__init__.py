"""Certified chains: ordinal notations, mod-finite set chains with
checkable certificates, their indicator-function chains, and exact chains
of continuous functions on finite metric spaces."""

from .ordinal import (Ordinal, ZERO, ONE, OMEGA,
                      add, classify, compare, fundamental_index,
                      fundamental_sequence, left_subtract, parse_ordinal,
                      format_ordinal)
from .lazyset import (LazySet, ResourceLimitError, ap, diff, empty, inter,
                      pair, parse_set, piece, rows, union, unpair)
from .certs import (ChainReport, OrderCertificate, OrdinalEmbedding,
                    SplitChain, base_cert, compose_certs, default_certificate,
                    default_interval, parse_certificate, tree_node,
                    tree_split, verify_certificate)
from .baire import BaireFunction, FSigmaWitness, fsigma_witness
from .metric import (ContChain, MetricAxiomError, MetricSpace, parse_space,
                     separated_net)

__version__ = "0.1.0"
