//! **WebPics** — the paper's prototype "online photo gallery": users
//! "upload photos and create photo albums … it allows users to edit their
//! photos (resize, rotate, crop, etc.). Thus, this application also acts as
//! a Web-based photo editing tool." (§VI)
//!
//! WebPics can also act as a Requester: "The online photo album can access
//! photos hosted at the online storage service … users can store photos in
//! their online storage service and can load them to the photo gallery" —
//! see the `/import` route. An import acts for the session's user, with
//! that user's own assertion.

use std::sync::Arc;

use ucam_crypto::{base64url_decode, base64url_encode};
use ucam_policy::Action;
use ucam_webenv::Method::{Get, Post};
use ucam_webenv::{Request, Response, SimClock, Transport, WebApp};

use crate::image::Image;
use crate::shell::Caller::{Pep, Session};
use crate::shell::{AppShell, Call, Route};

/// The online photo gallery application.
///
/// Photo resources live under ids `albums/<album>/<photo>`; album listings
/// are enforced with the `list` action on the album resource
/// `album-meta/<album>`. Photo bodies travel base64url-encoded. The class
/// column is who may call a route (DESIGN.md §17).
///
/// | Route | Class | Meaning |
/// |---|---|---|
/// | `POST /albums?name=a` | Session | create an album |
/// | `POST /photos?album=a&id=p` (body = base64 image) | Session | upload |
/// | `GET /photos/<album>/<p>` | Pep | view (read-enforced) |
/// | `POST /photos/<album>/<p>/rotate` | Pep | edit: rotate 90° (write-enforced) |
/// | `POST /photos/<album>/<p>/crop?x&y&w&h` | Pep | edit: crop |
/// | `POST /photos/<album>/<p>/resize?w&h` | Pep | edit: resize |
/// | `GET /album/<a>` | Pep | list photos (list-enforced) |
/// | `POST /import?from=h&src=r&album=a&id=p` | Session | load a photo from another Host for the session's user (Requester flow with that user's assertion) |
pub struct WebPics {
    shell: AppShell,
}

impl std::fmt::Debug for WebPics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebPics")
            .field("shell", &self.shell)
            .finish()
    }
}

impl WebPics {
    /// The gallery's own routes, served after the shell's.
    const ROUTES: &'static [Route<Self>] = &[
        (Some(Post), "/albums", Session, Self::create_album),
        (Some(Post), "/photos", Session, Self::upload_photo),
        (None, "/photos/", Pep, Self::photo_route),
        (Some(Get), "/album/", Pep, Self::list_album),
        (Some(Post), "/import", Session, Self::import),
    ];

    /// Creates the gallery at `authority`.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Arc<Self> {
        Arc::new(WebPics {
            shell: AppShell::new(authority, clock),
        })
    }

    /// Access to the shared shell.
    #[must_use]
    pub fn shell(&self) -> &AppShell {
        &self.shell
    }

    fn create_album(&self, c: Call<'_>) -> Response {
        let Some(name) = c.req.param("name") else {
            return Response::bad_request("name required");
        };
        self.shell
            .create(&c, format!("album-meta/{name}"), "album", Vec::new())
    }

    fn upload_photo(&self, c: Call<'_>) -> Response {
        let (Some(album), Some(photo)) = (c.req.param("album"), c.req.param("id")) else {
            return Response::bad_request("album and id required");
        };
        let Ok(bytes) = base64url_decode(&c.req.body) else {
            return Response::bad_request("body must be base64url image data");
        };
        if Image::from_bytes(&bytes).is_err() {
            return Response::bad_request("body is not a valid image");
        }
        self.shell
            .create(&c, format!("albums/{album}/{photo}"), "photo", bytes)
    }

    fn photo_route(&self, c: Call<'_>) -> Response {
        // /photos/<album>/<photo>[/<op>]
        let rest = c.req.url.path().trim_start_matches("/photos/");
        let segments: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
        let (album, photo, op) = match segments.as_slice() {
            [album, photo] => (*album, *photo, None),
            [album, photo, op] => (*album, *photo, Some(*op)),
            _ => return Response::bad_request("expected /photos/<album>/<photo>[/<op>]"),
        };
        let id = format!("albums/{album}/{photo}");

        match op {
            None => {
                if let Err(resp) = self.shell.enforce_web(&c, &id, &Action::Read) {
                    return resp;
                }
                match self.shell.core.resource(&id) {
                    Some(resource) => Response::ok().with_body(base64url_encode(&resource.data)),
                    None => Response::not_found(&id),
                }
            }
            Some(op) => {
                if let Err(resp) = self.shell.enforce_web(&c, &id, &Action::Write) {
                    return resp;
                }
                self.edit_photo(&id, op, c.req)
            }
        }
    }

    /// The Web-based photo editing tool (§VI).
    fn edit_photo(&self, id: &str, op: &str, req: &Request) -> Response {
        let Some(resource) = self.shell.core.resource(id) else {
            return Response::not_found(id);
        };
        let Ok(image) = Image::from_bytes(&resource.data) else {
            return Response::bad_request("stored resource is not an image");
        };
        let edited = match op {
            "rotate" => Ok(image.rotate90()),
            "crop" => {
                let coords =
                    ["x", "y", "w", "h"].map(|k| req.param(k).and_then(|v| v.parse::<u32>().ok()));
                match coords {
                    [Some(x), Some(y), Some(w), Some(h)] => {
                        image.crop(x, y, w, h).map_err(|e| e.to_string())
                    }
                    _ => Err("crop needs numeric x, y, w, h".to_owned()),
                }
            }
            "resize" => {
                let dims = ["w", "h"].map(|k| req.param(k).and_then(|v| v.parse::<u32>().ok()));
                match dims {
                    [Some(w), Some(h)] => image.resize(w, h).map_err(|e| e.to_string()),
                    _ => Err("resize needs numeric w, h".to_owned()),
                }
            }
            other => Err(format!("unknown edit operation: {other}")),
        };
        let edited = match edited {
            Ok(img) => img,
            Err(msg) => return Response::bad_request(&msg),
        };
        match self.shell.core.update_resource(id, edited.to_bytes()) {
            Ok(()) => Response::ok().with_body(format!(
                "{op} ok; now {}x{}",
                edited.width(),
                edited.height()
            )),
            Err(e) => Response::not_found(&e.to_string()),
        }
    }

    fn list_album(&self, c: Call<'_>) -> Response {
        let album = c.req.url.path().trim_start_matches("/album/");
        let meta_id = format!("album-meta/{album}");
        if let Err(resp) = self.shell.enforce_web(&c, &meta_id, &Action::List) {
            return resp;
        }
        let photos = self.shell.core.ids_with_prefix(&format!("albums/{album}/"));
        Response::ok().with_body(photos.join("\n"))
    }

    /// Acting as a Requester (§VI) for the session's user: load a photo
    /// stored at another Host (e.g. WebStorage) through the full token
    /// flow, as that user's.
    fn import(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let params = (
            req.param("from"),
            req.param("src"),
            req.param("album"),
            req.param("id"),
        );
        let (Some(from), Some(src), Some(album), Some(photo)) = params else {
            return Response::bad_request("from, src, album, id required");
        };
        match self.shell.fetch_for(&c, from, src) {
            Ok(body) => {
                // Remote hosts serve bodies as text; image payloads travel
                // base64url-encoded. Decode when it parses as an image,
                // otherwise keep the raw bytes.
                let bytes = match base64url_decode(&body) {
                    Ok(decoded) if Image::from_bytes(&decoded).is_ok() => decoded,
                    _ => body.into_bytes(),
                };
                self.shell
                    .create(&c, format!("albums/{album}/{photo}"), "photo", bytes)
            }
            Err(resp) => resp,
        }
    }
}

impl WebApp for WebPics {
    fn authority(&self) -> &str {
        self.shell.core.authority()
    }

    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        self.shell.serve(self, Self::ROUTES, net, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::{Method, SimNet, Status};

    fn setup() -> (SimNet, Arc<WebPics>, String) {
        let net = SimNet::new();
        let pics = WebPics::new("webpics.example", net.clock().clone());
        let idp = IdentityProvider::new("idp.example", net.clock().clone());
        idp.register_user("bob", "pw");
        pics.shell().set_identity_verifier(idp.verifier());
        net.register(pics.clone());
        let token = idp.login("bob", "pw").unwrap().token;
        (net, pics, token)
    }

    fn upload(net: &dyn Transport, token: &str, album: &str, id: &str, image: &Image) -> Response {
        net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/photos")
                .with_param("album", album)
                .with_param("id", id)
                .with_param("subject_token", token)
                .with_body(base64url_encode(&image.to_bytes())),
        )
    }

    #[test]
    fn upload_and_view() {
        let (net, _, token) = setup();
        let img = Image::gradient(8, 8);
        assert_eq!(
            upload(&net, &token, "rome", "p1", &img).status,
            Status::Created
        );
        let view = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webpics.example/photos/rome/p1")
                .with_param("subject_token", &token),
        );
        assert_eq!(view.status, Status::Ok);
        let bytes = base64url_decode(&view.body).unwrap();
        assert_eq!(Image::from_bytes(&bytes).unwrap(), img);
    }

    #[test]
    fn upload_rejects_garbage() {
        let (net, _, token) = setup();
        let resp = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/photos")
                .with_param("album", "a")
                .with_param("id", "p")
                .with_param("subject_token", &token)
                .with_body("!!!not-base64!!!"),
        );
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn editing_operations() {
        let (net, pics, token) = setup();
        let img = Image::gradient(8, 4);
        upload(&net, &token, "rome", "p1", &img);

        let rot = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webpics.example/photos/rome/p1/rotate",
            )
            .with_param("subject_token", &token),
        );
        assert_eq!(rot.status, Status::Ok);
        assert!(rot.body.contains("4x8"), "{}", rot.body);

        let crop = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/photos/rome/p1/crop")
                .with_param("subject_token", &token)
                .with_param("x", "0")
                .with_param("y", "0")
                .with_param("w", "2")
                .with_param("h", "2"),
        );
        assert_eq!(crop.status, Status::Ok);

        let resize = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webpics.example/photos/rome/p1/resize",
            )
            .with_param("subject_token", &token)
            .with_param("w", "6")
            .with_param("h", "6"),
        );
        assert_eq!(resize.status, Status::Ok);

        let stored = pics.shell().core.resource("albums/rome/p1").unwrap();
        let final_img = Image::from_bytes(&stored.data).unwrap();
        assert_eq!((final_img.width(), final_img.height()), (6, 6));
    }

    #[test]
    fn bad_crop_parameters_rejected() {
        let (net, _, token) = setup();
        upload(&net, &token, "rome", "p1", &Image::gradient(4, 4));
        let resp = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/photos/rome/p1/crop")
                .with_param("subject_token", &token)
                .with_param("x", "3")
                .with_param("y", "3")
                .with_param("w", "9")
                .with_param("h", "9"),
        );
        assert_eq!(resp.status, Status::BadRequest);
        let unknown = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/photos/rome/p1/sepia")
                .with_param("subject_token", &token),
        );
        assert_eq!(unknown.status, Status::BadRequest);
    }

    #[test]
    fn albums_create_and_list() {
        let (net, _, token) = setup();
        let created = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/albums")
                .with_param("name", "rome")
                .with_param("subject_token", &token),
        );
        assert_eq!(created.status, Status::Created);
        upload(&net, &token, "rome", "p1", &Image::gradient(2, 2));
        upload(&net, &token, "rome", "p2", &Image::gradient(2, 2));
        let list = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webpics.example/album/rome")
                .with_param("subject_token", &token),
        );
        assert_eq!(list.status, Status::Ok);
        assert_eq!(list.body, "albums/rome/p1\nalbums/rome/p2");
    }

    #[test]
    fn stranger_cannot_view_or_edit() {
        let (net, _, token) = setup();
        upload(&net, &token, "rome", "p1", &Image::gradient(2, 2));
        let view = net.dispatch(
            "browser:anon",
            Request::new(Method::Get, "https://webpics.example/photos/rome/p1"),
        );
        assert_eq!(view.status, Status::Forbidden);
        let edit = net.dispatch(
            "browser:anon",
            Request::new(
                Method::Post,
                "https://webpics.example/photos/rome/p1/rotate",
            ),
        );
        assert_eq!(edit.status, Status::Forbidden);
    }

    /// WebPics' rows. The second `/import` entry is the shared-client
    /// hole: right after Bob's own import, another user's import of the
    /// same file once rode Bob's cached token (201).
    #[test]
    fn every_gallery_route_answers_each_caller_as_pinned() {
        use crate::shell::route_matrix::{check, pin};
        const IMPORT: &str = "/import?from=webstorage.example&src=files/a.txt&album=rome&id=copy";
        const FIRST: &str = "/import?from=webstorage.example&src=files/a.txt&album=rome&id=first";
        let image = base64url_encode(&Image::gradient(2, 2).to_bytes());
        // Columns: anonymous, another user, the owner, a host registrant,
        // the delegated host, a forged credential.
        let expected = [
            pin(
                "/albums",
                Post,
                "/albums?name=new",
                [401, 201, 201, 401, 401, 401],
            ),
            pin(
                "/photos",
                Post,
                "/photos?album=new&id=p",
                [401, 201, 201, 401, 401, 401],
            )
            .with_body(&image),
            pin(
                "/photos/",
                Get,
                "/photos/rome/p1",
                [302, 302, 200, 302, 302, 302],
            ),
            pin(
                "/album/",
                Get,
                "/album/rome",
                [302, 302, 200, 302, 302, 302],
            ),
            pin("/import", Post, IMPORT, [401, 403, 201, 401, 401, 401]),
            pin("/import", Post, IMPORT, [401, 403, 201, 401, 401, 401]).after_owner(FIRST),
        ];
        check(WebPics::ROUTES, &expected, |rig| &*rig.pics);
    }
}
