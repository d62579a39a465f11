//! Projection matrix builders (the "camera's point of view" of §II-A).

use crate::mat::Mat4;
use crate::vec::Vec4;

/// OpenGL-style perspective projection: visible points end up with
/// `-w ≤ x, y, z ≤ w` in clip space.
///
/// The focal factor `1 / tan(fov_y / 2)` comes from `f32::tan`, whose last
/// bit may differ between a call at run time and one the compiler folded to a
/// constant. A caller whose results must not depend on the build passes the
/// factor itself to [`perspective_focal`].
///
/// # Panics
/// Panics if `near`/`far`/`aspect` are not positive or `far ≤ near`.
pub fn perspective(fov_y_radians: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
    perspective_focal(1.0 / (fov_y_radians * 0.5).tan(), aspect, near, far)
}

/// [`perspective`] from the focal factor `f = 1 / tan(fov_y / 2)`.
///
/// # Panics
/// Panics if `near`/`far`/`aspect` are not positive or `far ≤ near`.
pub fn perspective_focal(f: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
    assert!(near > 0.0 && far > near && aspect > 0.0, "invalid perspective parameters");
    let mut m = Mat4 { cols: [Vec4::default(); 4] };
    m.cols[0].x = f / aspect;
    m.cols[1].y = f;
    m.cols[2].z = (far + near) / (near - far);
    m.cols[2].w = -1.0;
    m.cols[3].z = 2.0 * far * near / (near - far);
    m
}

/// Orthographic projection of the box `[l,r]×[b,t]×[n,f]` onto clip space.
pub fn orthographic(l: f32, r: f32, b: f32, t: f32, n: f32, f: f32) -> Mat4 {
    let mut m = Mat4::IDENTITY;
    m.cols[0].x = 2.0 / (r - l);
    m.cols[1].y = 2.0 / (t - b);
    m.cols[2].z = -2.0 / (f - n);
    m.cols[3] = Vec4::new(-(r + l) / (r - l), -(t + b) / (t - b), -(f + n) / (f - n), 1.0);
    m
}

/// Pixel-space orthographic camera for 2-D scenes: object coordinates are screen
/// pixels `(0..width, 0..height)` and depth is `z ∈ [0, 1]` (0 = near). Unlike the
/// GL convention (which looks down −Z), depth here grows *into* the screen, so
/// `z = 0 → NDC −1` and `z = 1 → NDC +1`.
pub fn screen_ortho(width: u32, height: u32) -> Mat4 {
    // orthographic() maps with -2/(f-n); passing (n, f) = (0, -1) yields z_ndc = 2z-1.
    orthographic(0.0, width as f32, 0.0, height as f32, 0.0, -1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec::Vec3;

    #[test]
    fn perspective_center_point_projects_to_origin() {
        let m = perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        // A point straight ahead at z=-1 (looking down -Z).
        let clip = m.transform_point(Vec3::new(0.0, 0.0, -1.0));
        let ndc_x = clip.x / clip.w;
        let ndc_y = clip.y / clip.w;
        assert!(ndc_x.abs() < 1e-6 && ndc_y.abs() < 1e-6);
        assert!(clip.w > 0.0);
    }

    #[test]
    fn perspective_maps_near_and_far_to_ndc_bounds() {
        let (n, f) = (0.5f32, 10.0f32);
        let m = perspective(1.0, 1.0, n, f);
        let near = m.transform_point(Vec3::new(0.0, 0.0, -n));
        let far = m.transform_point(Vec3::new(0.0, 0.0, -f));
        assert!((near.z / near.w + 1.0).abs() < 1e-5, "near plane -> -1");
        assert!((far.z / far.w - 1.0).abs() < 1e-4, "far plane -> +1");
    }

    #[test]
    fn perspective_is_perspective_focal_of_its_focal_factor() {
        let fov = 1.2f32;
        let f = 1.0 / (fov * 0.5).tan();
        assert_eq!(perspective(fov, 1.5, 0.5, 60.0), perspective_focal(f, 1.5, 0.5, 60.0));
    }

    #[test]
    #[should_panic(expected = "invalid perspective")]
    fn perspective_rejects_bad_planes() {
        let _ = perspective(1.0, 1.0, 1.0, 0.5);
    }

    #[test]
    fn screen_ortho_maps_corners() {
        let m = screen_ortho(960, 544);
        let bl = m.transform_point(Vec3::new(0.0, 0.0, 0.0));
        let tr = m.transform_point(Vec3::new(960.0, 544.0, 1.0));
        assert!((bl.x / bl.w + 1.0).abs() < 1e-6);
        assert!((bl.y / bl.w + 1.0).abs() < 1e-6);
        assert!((tr.x / tr.w - 1.0).abs() < 1e-6);
        assert!((tr.y / tr.w - 1.0).abs() < 1e-6);
        // Depth 0 -> NDC +1? No: GL ortho maps n->-1, f->+1 with the -2/(f-n) row.
        assert!((bl.z / bl.w + 1.0).abs() < 1e-6);
        assert!((tr.z / tr.w - 1.0).abs() < 1e-6);
    }

    #[test]
    fn screen_ortho_center_is_ndc_origin() {
        let m = screen_ortho(100, 100);
        let c = m.transform_point(Vec3::new(50.0, 50.0, 0.5));
        assert!((c.x / c.w).abs() < 1e-6 && (c.y / c.w).abs() < 1e-6);
    }
}
