"""Point and line-segment sparse-SLAM back-end mathematics.

Subpackages and modules:

* ``geometry`` -- SO(3)/SE(3), left-perturbation Jacobians, pinhole camera
* ``noise`` -- robust kernels and sensor noise models
* ``point_errors`` -- point residual and Jacobian kernels, covariances
* ``lines`` -- line triangulation; distance, Jacobian and covariance kernels
* ``sparse_map`` -- map data model, tile index, descriptor matching
* ``ba`` -- columnar residual tables, Levenberg-Marquardt bundle adjustment
* ``voma`` -- depth-image backprojection, normals, voxel centroid map
* ``harness`` -- synthetic scenes, experiments, metrics
* ``cli`` -- command-line entry point
"""

__version__ = "0.1.0"
