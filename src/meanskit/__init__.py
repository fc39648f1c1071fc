"""meanskit: operator connections and Kubo-Ando means on real symmetric
positive-semidefinite matrices, in three interchangeable representations
(binary operation, representing function, Borel measure), with randomized
verification suites and a CLI.

The package exports each module's ``__all__``; those lists are the one
statement of the public names."""

from .linalg import *
from .connections import *
from .measures import *
from .verify import *

__version__ = "0.1.0"
