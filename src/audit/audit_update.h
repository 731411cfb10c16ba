#ifndef MOVD_AUDIT_AUDIT_UPDATE_H_
#define MOVD_AUDIT_AUDIT_UPDATE_H_

#include "audit/audit.h"
#include "model/movd_model.h"

namespace movd {

/// Validates the live-update contract (DESIGN.md §14): an incrementally
/// patched artifact must be byte-identical to the artifact a from-scratch
/// rebuild of the mutated dataset produces, OVR by OVR in order. Both are
/// in canonical order as built (model/update_model.h): basic MOVDs in
/// object order, overlays as their ascending-layer fold emits them.
///
/// Reports kPatchedOvrCount when the OVR counts differ, and one
/// kPatchedOvrMismatch per position where the OVRs are not bit-identical,
/// with the first diverging poi/coordinate as witness. The serve stack
/// runs this when auditing is enabled and falls back to the rebuilt
/// artifact on any violation, so a patching bug degrades performance —
/// never answers.
AuditReport AuditPatchedMovd(const Movd& patched, const Movd& rebuilt);

}  // namespace movd

#endif  // MOVD_AUDIT_AUDIT_UPDATE_H_
