//! Minimal NumPy `.npy` reading — load *real* OpenFWI files.
//!
//! The reproduction regenerates FlatVelA synthetically, but users who
//! have downloaded the actual OpenFWI archives (`seisN.npy` of shape
//! `(n, 5, 1000, 70)` f32 and `velN.npy` of shape `(n, 1, 70, 70)` f32)
//! can load them directly with this module — no NumPy dependency.
//!
//! Supports `.npy` format versions 1.x with little-endian `f4`/`f8`
//! arrays in C order, which covers every OpenFWI release file.

use std::io::Read;
use std::path::Path;

use qugeo_tensor::{Array2, Array3};

use crate::GeodataError;

/// A parsed `.npy` array: shape plus flat C-order data widened to `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct NpyArray {
    /// Dimension sizes, outermost first.
    pub shape: Vec<usize>,
    /// Flat data in C (row-major) order.
    pub data: Vec<f64>,
}

impl NpyArray {
    /// Total element count implied by the shape.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reads a `.npy` file of little-endian `f4` or `f8` data.
///
/// # Errors
///
/// Returns [`GeodataError::Io`] for filesystem failures and
/// [`GeodataError::CorruptCache`] for malformed or unsupported files
/// (fortran order, big-endian, or non-float dtypes).
pub fn read_npy(path: &Path) -> Result<NpyArray, GeodataError> {
    let mut file = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    parse_npy(&bytes)
}

/// Parses `.npy` bytes (see [`read_npy`]).
///
/// # Errors
///
/// Returns [`GeodataError::CorruptCache`] for malformed input, including
/// a shape whose element or byte count overflows or exceeds the data.
pub fn parse_npy(bytes: &[u8]) -> Result<NpyArray, GeodataError> {
    let bad = |reason: String| GeodataError::CorruptCache { reason };
    if bytes.len() < 10 || &bytes[..6] != b"\x93NUMPY" {
        return Err(bad("missing NUMPY magic".into()));
    }
    let major = bytes[6];
    if major != 1 && major != 2 {
        return Err(bad(format!("unsupported npy version {major}")));
    }
    let (header_len, header_start) = if major == 1 {
        (u16::from_le_bytes([bytes[8], bytes[9]]) as usize, 10usize)
    } else {
        if bytes.len() < 12 {
            return Err(bad("truncated v2 header".into()));
        }
        (
            u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize,
            12usize,
        )
    };
    let data_start = header_start + header_len;
    if bytes.len() < data_start {
        return Err(bad("truncated header".into()));
    }
    let header = std::str::from_utf8(&bytes[header_start..data_start])
        .map_err(|_| bad("header not utf-8".into()))?;

    let descr = extract_quoted(header, "descr").ok_or_else(|| bad("missing descr".into()))?;
    let elem_size = match descr.as_str() {
        "<f4" | "|f4" => 4usize,
        "<f8" | "|f8" => 8usize,
        other => return Err(bad(format!("unsupported dtype {other}"))),
    };
    if header.contains("'fortran_order': True") {
        return Err(bad("fortran order not supported".into()));
    }
    let shape = extract_shape(header).ok_or_else(|| bad("missing shape".into()))?;

    // The shape is untrusted: bound it by the bytes actually present
    // before allocating.
    let count = shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| bad(format!("shape {shape:?} overflows the element count")))?;
    let need = count
        .checked_mul(elem_size)
        .ok_or_else(|| bad(format!("shape {shape:?} overflows the byte count")))?;
    let data_bytes = &bytes[data_start..];
    if data_bytes.len() < need {
        return Err(bad(format!(
            "data truncated: need {need} bytes, have {}",
            data_bytes.len()
        )));
    }
    let mut data = Vec::with_capacity(count);
    match elem_size {
        4 => {
            for chunk in data_bytes[..need].chunks_exact(4) {
                data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as f64);
            }
        }
        _ => {
            for chunk in data_bytes[..need].chunks_exact(8) {
                data.push(f64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6],
                    chunk[7],
                ]));
            }
        }
    }
    Ok(NpyArray { shape, data })
}

/// Extracts `'key': '<value>'` from the header dict.
fn extract_quoted(header: &str, key: &str) -> Option<String> {
    let pat = format!("'{key}':");
    let rest = &header[header.find(&pat)? + pat.len()..];
    let first = rest.find('\'')?;
    let rest = &rest[first + 1..];
    let second = rest.find('\'')?;
    Some(rest[..second].to_string())
}

/// Extracts `'shape': (a, b, …)` from the header dict.
fn extract_shape(header: &str) -> Option<Vec<usize>> {
    let pat = "'shape':";
    let rest = &header[header.find(pat)? + pat.len()..];
    let open = rest.find('(')?;
    let close = rest.find(')')?;
    let inner = &rest[open + 1..close];
    let mut shape = Vec::new();
    for part in inner.split(',') {
        let t = part.trim();
        if t.is_empty() {
            continue;
        }
        shape.push(t.parse().ok()?);
    }
    Some(shape)
}

/// Loads an OpenFWI seismic archive (`(n, s, t, r)` f32) as one
/// [`Array3`] cube per sample.
///
/// # Errors
///
/// Returns [`GeodataError::CorruptCache`] unless the file is 4-D with
/// non-empty gathers.
pub fn load_openfwi_seismic(path: &Path) -> Result<Vec<Array3>, GeodataError> {
    let arr = read_npy(path)?;
    let [_, s, t, r] = arr.shape[..] else {
        return Err(GeodataError::CorruptCache {
            reason: format!("expected 4-d seismic archive, got shape {:?}", arr.shape),
        });
    };
    // `parse_npy` has bounded the whole product, so this one fits, and
    // the data holds exactly the leading dimension's count of gathers.
    let per = s * t * r;
    if per == 0 {
        return Err(GeodataError::CorruptCache {
            reason: format!("empty gathers in seismic archive of shape {:?}", arr.shape),
        });
    }
    arr.data
        .chunks_exact(per)
        .enumerate()
        .map(|(i, cube)| {
            Array3::from_vec(s, t, r, cube.to_vec()).map_err(|e| GeodataError::CorruptCache {
                reason: format!("sample {i}: {e}"),
            })
        })
        .collect()
}

/// Loads an OpenFWI velocity archive (`(n, 1, h, w)` or `(n, h, w)` f32)
/// as one [`Array2`] map per sample.
///
/// # Errors
///
/// Returns [`GeodataError::CorruptCache`] unless the file is 3-D or 4-D
/// with a singleton channel and non-empty maps.
pub fn load_openfwi_velocity(path: &Path) -> Result<Vec<Array2>, GeodataError> {
    let arr = read_npy(path)?;
    let (h, w) = match arr.shape[..] {
        [_, 1, h, w] | [_, h, w] => (h, w),
        _ => {
            return Err(GeodataError::CorruptCache {
                reason: format!("expected velocity archive, got shape {:?}", arr.shape),
            })
        }
    };
    let per = h * w;
    if per == 0 {
        return Err(GeodataError::CorruptCache {
            reason: format!("empty maps in velocity archive of shape {:?}", arr.shape),
        });
    }
    arr.data
        .chunks_exact(per)
        .enumerate()
        .map(|(i, map)| {
            Array2::from_vec(h, w, map.to_vec()).map_err(|e| GeodataError::CorruptCache {
                reason: format!("map {i}: {e}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a v1 .npy byte buffer around little-endian f4 data.
    fn npy_f32(shape: &[usize], values: &[f32]) -> Vec<u8> {
        let shape_str = match shape.len() {
            1 => format!("({},)", shape[0]),
            _ => format!(
                "({})",
                shape
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        let mut header = format!(
            "{{'descr': '<f4', 'fortran_order': False, 'shape': {shape_str}, }}"
        );
        // Pad so that total header size is a multiple of 16 (the spec).
        while (10 + header.len() + 1) % 16 != 0 {
            header.push(' ');
        }
        header.push('\n');
        let mut out = Vec::new();
        out.extend_from_slice(b"\x93NUMPY");
        out.push(1);
        out.push(0);
        out.extend_from_slice(&(header.len() as u16).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn parses_simple_f32_array() {
        let bytes = npy_f32(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let arr = parse_npy(&bytes).unwrap();
        assert_eq!(arr.shape, vec![2, 3]);
        assert_eq!(arr.data, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(arr.len(), 6);
    }

    #[test]
    fn parses_1d_trailing_comma_shape() {
        let bytes = npy_f32(&[4], &[0.5, 1.5, 2.5, 3.5]);
        let arr = parse_npy(&bytes).unwrap();
        assert_eq!(arr.shape, vec![4]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_npy(b"not numpy at all").is_err());
        assert!(parse_npy(b"\x93NUMPY").is_err());
        // Valid magic, truncated data.
        let mut bytes = npy_f32(&[10], &[1.0; 10]);
        bytes.truncate(bytes.len() - 8);
        assert!(parse_npy(&bytes).is_err());
    }

    #[test]
    fn rejects_unsupported_dtype() {
        let mut bytes = npy_f32(&[1], &[1.0]);
        // Corrupt descr '<f4' -> '<i4'.
        let pos = bytes.windows(3).position(|w| w == b"<f4").unwrap();
        bytes[pos + 1] = b'i';
        assert!(parse_npy(&bytes).is_err());
    }

    #[test]
    fn openfwi_seismic_layout_roundtrip() {
        // 2 samples × 2 sources × 3 steps × 2 receivers.
        let values: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let bytes = npy_f32(&[2, 2, 3, 2], &values);
        let dir = std::env::temp_dir().join("qugeo_npy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seis.npy");
        std::fs::write(&path, &bytes).unwrap();

        let cubes = load_openfwi_seismic(&path).unwrap();
        assert_eq!(cubes.len(), 2);
        assert_eq!(cubes[0].shape(), (2, 3, 2));
        assert_eq!(cubes[0][(0, 0, 0)], 0.0);
        assert_eq!(cubes[1][(0, 0, 0)], 12.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn openfwi_velocity_layout_roundtrip() {
        let values: Vec<f32> = (0..18).map(|i| 1500.0 + i as f32).collect();
        let bytes = npy_f32(&[2, 1, 3, 3], &values);
        let dir = std::env::temp_dir().join("qugeo_npy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vel.npy");
        std::fs::write(&path, &bytes).unwrap();

        let maps = load_openfwi_velocity(&path).unwrap();
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].shape(), (3, 3));
        assert_eq!(maps[1][(0, 0)], 1509.0);
        std::fs::remove_file(&path).ok();
    }

    /// Runs both OpenFWI loaders on `bytes`, written to a scratch file.
    fn load_both(name: &str, bytes: &[u8]) -> [Result<usize, GeodataError>; 2] {
        let dir = std::env::temp_dir().join("qugeo_npy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let loaded = [
            load_openfwi_seismic(&path).map(|cubes| cubes.len()),
            load_openfwi_velocity(&path).map(|maps| maps.len()),
        ];
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn shapes_the_bytes_do_not_back_are_corrupt_not_a_panic() {
        // (2^62, 2, 2): the element count overflows. (2^61, 1, 2, 2): the
        // element count fits, its f4 byte count does not.
        for (name, shape) in [
            ("count.npy", vec![1usize << 62, 2, 2]),
            ("bytes.npy", vec![1usize << 61, 1, 2, 2]),
        ] {
            let bytes = npy_f32(&shape, &[1.0; 4]);
            let parsed = parse_npy(&bytes);
            assert!(
                matches!(parsed, Err(GeodataError::CorruptCache { .. })),
                "{shape:?}: {parsed:?}"
            );
            for loaded in load_both(name, &bytes) {
                assert!(
                    matches!(loaded, Err(GeodataError::CorruptCache { .. })),
                    "{shape:?}: {loaded:?}"
                );
            }
        }
    }

    #[test]
    fn zero_sized_samples_are_corrupt() {
        // 2^62 samples of nothing: no bytes needed, but no data either.
        let bytes = npy_f32(&[1 << 62, 1, 0, 2], &[]);
        assert_eq!(parse_npy(&bytes).unwrap().data.len(), 0);
        for loaded in load_both("empty.npy", &bytes) {
            assert!(
                matches!(loaded, Err(GeodataError::CorruptCache { .. })),
                "{loaded:?}"
            );
        }
    }

    #[test]
    fn wrong_dimensionality_rejected() {
        let bytes = npy_f32(&[4], &[1.0; 4]);
        let dir = std::env::temp_dir().join("qugeo_npy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flat.npy");
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_openfwi_seismic(&path).is_err());
        assert!(load_openfwi_velocity(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
