//! `oracle-pinning`: every fast kernel keeps its reference oracle and
//! the property test that pins them together.
//!
//! The GEMM, blocked-kNN, blocked-Sinkhorn, and GEMM-cost rewrites all
//! shipped with an in-tree naive reference and a property suite
//! asserting (bitwise or toleranced) agreement. That pairing is the
//! repo's whole correctness story for kernel work, so it is recorded in
//! `docs/oracle_manifest.txt` — `kernel  oracle  property-test-file` —
//! and this rule enforces it: the manifest must cover the required
//! kernel set, each oracle must be named like a reference
//! (`*_reference` / `*_naive`) — or be itself the kernel of another
//! manifest row (transitive pinning: the ANN sparsifier's recall oracle
//! is the exact `knn_candidates` kernel, which row 2 pins to its own
//! naive reference) — and the named property-test file must actually
//! reference both symbols. Deleting an oracle, its test, or a manifest
//! row fails the gate.

use crate::lexer::Tok;
use crate::source::SourceFile;
use crate::Diagnostic;
use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// Rule name as written in diagnostics.
pub const RULE: &str = "oracle-pinning";

/// Workspace-root-relative path of the manifest.
pub const MANIFEST: &str = "docs/oracle_manifest.txt";

/// Kernels that must have a manifest row (matched against the last
/// `::` segment of the row's kernel column).
pub const REQUIRED_KERNELS: &[&str] = &[
    "matmul",
    "householder_qr",
    "knn_candidates",
    "ann_candidates",
    "sinkhorn",
    "pairwise_cost",
    "symmetric_eigen",
    "jacobi_svd",
    "suitor_matching",
    "spectral_embedding",
];

fn diag(line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: MANIFEST.to_string(),
        line,
        rule: RULE,
        message,
    }
}

/// Runs the rule: parses the manifest and verifies each row against the
/// walked workspace `files`.
pub fn check(files: &[SourceFile], root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let text = match fs::read_to_string(root.join(MANIFEST)) {
        Ok(t) => t,
        Err(e) => {
            diags.push(diag(0, format!("cannot read oracle manifest: {e}")));
            return diags;
        }
    };

    // First pass: the kernel set, so an oracle that is itself a pinned
    // kernel of another row (transitive pinning) passes the name check.
    let kernel_names: HashSet<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .map(|k| k.rsplit("::").next().unwrap_or(k))
        .collect();

    let mut covered: HashSet<&str> = HashSet::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let entry = raw.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = entry.split_whitespace().collect();
        let [kernel, oracle, test_file] = fields.as_slice() else {
            diags.push(diag(
                lineno,
                format!("malformed row (want `kernel oracle test-file`): {entry}"),
            ));
            continue;
        };
        let kernel_name = kernel.rsplit("::").next().unwrap_or(kernel);
        covered.insert(kernel_name);

        let named_as_oracle = oracle.ends_with("_reference") || oracle.ends_with("_naive");
        let pinned_kernel = kernel_names.contains(oracle) && *oracle != kernel_name;
        if !(named_as_oracle || pinned_kernel) {
            diags.push(diag(
                lineno,
                format!(
                    "oracle `{oracle}` for `{kernel}` must be named *_reference or *_naive, \
                     or be the kernel of another manifest row"
                ),
            ));
        }
        let Some(test) = files.iter().find(|f| f.rel == *test_file) else {
            diags.push(diag(
                lineno,
                format!("property-test file `{test_file}` for `{kernel}` does not exist"),
            ));
            continue;
        };
        let idents: HashSet<&str> = test
            .lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        for (what, symbol) in [("kernel", kernel_name), ("oracle", *oracle)] {
            if !idents.contains(symbol) {
                diags.push(diag(
                    lineno,
                    format!("`{test_file}` never references the {what} symbol `{symbol}`"),
                ));
            }
        }
    }

    for required in REQUIRED_KERNELS {
        if !covered.contains(required) {
            diags.push(diag(
                0,
                format!("required kernel `{required}` has no oracle-manifest row"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_name_is_last_path_segment() {
        assert_eq!("gemm::matmul".rsplit("::").next(), Some("matmul"));
        assert_eq!("sinkhorn".rsplit("::").next(), Some("sinkhorn"));
    }
}
